//! Recursive-descent parser for Quel/TQuel.
//!
//! The grammar follows the paper's examples:
//!
//! ```text
//! statement   := range | retrieve | append | delete | replace
//!              | create | destroy
//!              | ("explain" | "profile") statement
//!              | "analyze" ident
//!              ; "select" is accepted as an alias for "retrieve";
//!              ; explain/profile/select/analyze are contextual
//!              ; identifiers, not reserved
//! range       := "range" "of" ident "is" ident
//! retrieve    := "retrieve" ["into" ident] "(" target {"," target} ")"
//!                { "valid" valid | "where" wexpr | "when" pred
//!                | "as" "of" texpr ["through" texpr] }
//! target      := [ident "="] ident "." ident
//! valid       := "at" texpr | "from" texpr "to" texpr
//! pred        := por ; por := pand {"or" pand}
//! pand        := pnot {"and" pnot} ; pnot := "not" pnot | pprim
//! pprim       := "(" por ")" | texpr ("overlap"|"precede"|"equal") texpr
//! texpr       := tprefix {("extend" | "overlap") tprefix}
//! tprefix     := ("start"|"end") "of" tprefix | tatom
//! tatom       := string | ident | "(" texpr ")"
//! wexpr       := wor ; wor := wand {"or" wand} ; wand := wnot {"and" wnot}
//! wnot        := "not" wnot | wprim
//! wprim       := "(" wor ")" | operand cmp operand
//! operand     := ident "." ident | string | int | float
//! ```
//!
//! Inside a `when` predicate the binary `overlap` at top level is the
//! *predicate*; inside a `valid` clause or parentheses it is the
//! intersection *expression* — the parser disambiguates by context, as
//! TQuel does.

use chronos_core::value::AttrType;

use crate::ast::*;
use crate::error::{TquelError, TquelResult};
use crate::token::{lex, Keyword as K, Token, TokenKind as T};

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

/// Parses a whole program (sequence of statements).
pub fn parse_program(src: &str) -> TquelResult<Vec<Statement>> {
    let mut p = Parser {
        tokens: lex(src)?,
        pos: 0,
    };
    let mut out = Vec::new();
    while !p.at_eof() {
        out.push(p.statement()?);
    }
    Ok(out)
}

/// Parses exactly one statement (trailing input is an error).
pub fn parse_statement(src: &str) -> TquelResult<Statement> {
    let mut p = Parser {
        tokens: lex(src)?,
        pos: 0,
    };
    let stmt = p.statement()?;
    if !p.at_eof() {
        return Err(p.error("trailing input after statement"));
    }
    Ok(stmt)
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &T<'a> {
        &self.tokens[self.pos].kind
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), T::Eof)
    }

    /// Moves past the current token (never past end of input).
    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn error(&self, message: impl Into<String>) -> TquelError {
        TquelError::Parse {
            message: format!("{} (found {})", message.into(), self.peek()),
            offset: self.tokens[self.pos].offset,
        }
    }

    fn expect_kw(&mut self, k: K) -> TquelResult<()> {
        match self.peek() {
            T::Keyword(got) if *got == k => {
                self.bump();
                Ok(())
            }
            _ => Err(self.error(format!("expected keyword '{k}'"))),
        }
    }

    fn eat_kw(&mut self, k: K) -> bool {
        if matches!(self.peek(), T::Keyword(got) if *got == k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: T<'_>) -> TquelResult<()> {
        if self.peek() == &t {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {t}")))
        }
    }

    /// An identifier the AST keeps: the one place a name is allocated.
    fn ident(&mut self) -> TquelResult<String> {
        self.ident_str().map(str::to_owned)
    }

    /// An identifier, borrowed from the source.
    fn ident_str(&mut self) -> TquelResult<&'a str> {
        match *self.peek() {
            T::Ident(s) => {
                self.bump();
                Ok(s)
            }
            _ => Err(self.error("expected identifier")),
        }
    }

    // ----------------------------------------------------------------
    // Statements
    // ----------------------------------------------------------------

    fn statement(&mut self) -> TquelResult<Statement> {
        match self.peek() {
            T::Keyword(K::Range) => self.range_decl(),
            T::Keyword(K::Retrieve) => self.retrieve(),
            T::Keyword(K::Append) => self.append(),
            T::Keyword(K::Delete) => self.delete(),
            T::Keyword(K::Replace) => self.replace(),
            T::Keyword(K::Create) => self.create(),
            T::Keyword(K::Destroy) => self.destroy(),
            // `explain`, `profile`, and `select` are *contextual*
            // identifiers (like aggregate function names): recognised
            // only in statement-initial position, so relations and
            // attributes may still use the words freely.
            T::Ident(s) if s.eq_ignore_ascii_case("explain") => {
                self.bump();
                Ok(Statement::Explain {
                    profile: false,
                    inner: Box::new(self.statement()?),
                })
            }
            T::Ident(s) if s.eq_ignore_ascii_case("profile") => {
                self.bump();
                Ok(Statement::Explain {
                    profile: true,
                    inner: Box::new(self.statement()?),
                })
            }
            T::Ident(s) if s.eq_ignore_ascii_case("select") => {
                // SQL-flavoured alias for `retrieve`.
                self.bump();
                self.retrieve_tail()
            }
            T::Ident(s) if s.eq_ignore_ascii_case("analyze") => {
                self.bump();
                let relation = self.ident()?;
                Ok(Statement::Analyze { relation })
            }
            _ => Err(self.error("expected a statement")),
        }
    }

    fn range_decl(&mut self) -> TquelResult<Statement> {
        self.expect_kw(K::Range)?;
        self.expect_kw(K::Of)?;
        let var = self.ident()?;
        self.expect_kw(K::Is)?;
        let relation = self.ident()?;
        Ok(Statement::RangeDecl { var, relation })
    }

    fn retrieve(&mut self) -> TquelResult<Statement> {
        self.expect_kw(K::Retrieve)?;
        self.retrieve_tail()
    }

    /// Everything after the `retrieve` keyword (shared with the
    /// `select` alias).
    fn retrieve_tail(&mut self) -> TquelResult<Statement> {
        let into = if self.eat_kw(K::Into) {
            Some(self.ident()?)
        } else {
            None
        };
        self.expect(T::LParen)?;
        let mut targets = Vec::with_capacity(4);
        targets.push(self.target()?);
        while matches!(self.peek(), T::Comma) {
            self.bump();
            targets.push(self.target()?);
        }
        self.expect(T::RParen)?;

        let mut valid = None;
        let mut where_clause = None;
        let mut when_clause = None;
        let mut as_of = None;
        loop {
            match self.peek() {
                T::Keyword(K::Valid) if valid.is_none() => {
                    self.bump();
                    valid = Some(self.valid_clause()?);
                }
                T::Keyword(K::Where) if where_clause.is_none() => {
                    self.bump();
                    where_clause = Some(self.where_expr()?);
                }
                T::Keyword(K::When) if when_clause.is_none() => {
                    self.bump();
                    when_clause = Some(self.when_expr()?);
                }
                T::Keyword(K::As) if as_of.is_none() => {
                    self.bump();
                    self.expect_kw(K::Of)?;
                    let at = self.texpr(false)?;
                    let through = if self.eat_kw(K::Through) {
                        Some(self.texpr(false)?)
                    } else {
                        None
                    };
                    as_of = Some(AsOfClause { at, through });
                }
                _ => break,
            }
        }
        Ok(Statement::Retrieve(Retrieve {
            into,
            targets,
            valid,
            where_clause,
            when_clause,
            as_of,
        }))
    }

    fn target(&mut self) -> TquelResult<Target> {
        // [name =] (var.attr | func(var.attr)) — lookahead distinguishes
        // `x = f.a` from `f.a` from `count(f.a)`.
        let first = self.ident()?;
        match self.peek() {
            T::Eq => {
                self.bump();
                let expr = self.target_expr()?;
                Ok(Target {
                    name: Some(first),
                    expr,
                })
            }
            T::Dot => {
                self.bump();
                let attr = self.ident()?;
                Ok(Target {
                    name: None,
                    expr: TargetExpr::Attr(AttrRef { var: first, attr }),
                })
            }
            T::LParen => {
                let func = AggFunc::from_name(&first)
                    .ok_or_else(|| self.error(format!("unknown aggregate function {first:?}")))?;
                self.bump();
                let var = self.ident()?;
                self.expect(T::Dot)?;
                let attr = self.ident()?;
                self.expect(T::RParen)?;
                Ok(Target {
                    name: None,
                    expr: TargetExpr::Aggregate(func, AttrRef { var, attr }),
                })
            }
            _ => Err(self.error("expected '.', '=', or '(' in target")),
        }
    }

    fn target_expr(&mut self) -> TquelResult<TargetExpr> {
        let first = self.ident()?;
        match self.peek() {
            T::Dot => {
                self.bump();
                let attr = self.ident()?;
                Ok(TargetExpr::Attr(AttrRef { var: first, attr }))
            }
            T::LParen => {
                let func = AggFunc::from_name(&first)
                    .ok_or_else(|| self.error(format!("unknown aggregate function {first:?}")))?;
                self.bump();
                let var = self.ident()?;
                self.expect(T::Dot)?;
                let attr = self.ident()?;
                self.expect(T::RParen)?;
                Ok(TargetExpr::Aggregate(func, AttrRef { var, attr }))
            }
            _ => Err(self.error("expected '.' or '(' after identifier in target")),
        }
    }

    fn valid_clause(&mut self) -> TquelResult<ValidClause> {
        if self.eat_kw(K::At) {
            Ok(ValidClause::At(self.texpr(true)?))
        } else if self.eat_kw(K::From) {
            let from = self.texpr(true)?;
            self.expect_kw(K::To)?;
            let to = self.texpr(true)?;
            Ok(ValidClause::FromTo(from, to))
        } else {
            Err(self.error("expected 'at' or 'from' after 'valid'"))
        }
    }

    fn append(&mut self) -> TquelResult<Statement> {
        self.expect_kw(K::Append)?;
        let _ = self.eat_kw(K::To);
        let relation = self.ident()?;
        let assignments = self.assignment_list()?;
        let valid = if self.eat_kw(K::Valid) {
            Some(self.valid_clause()?)
        } else {
            None
        };
        Ok(Statement::Append {
            relation,
            assignments,
            valid,
        })
    }

    fn delete(&mut self) -> TquelResult<Statement> {
        self.expect_kw(K::Delete)?;
        let var = self.ident()?;
        let where_clause = if self.eat_kw(K::Where) {
            Some(self.where_expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { var, where_clause })
    }

    fn replace(&mut self) -> TquelResult<Statement> {
        self.expect_kw(K::Replace)?;
        let var = self.ident()?;
        let assignments = self.assignment_list()?;
        let mut valid = None;
        let mut where_clause = None;
        loop {
            match self.peek() {
                T::Keyword(K::Valid) if valid.is_none() => {
                    self.bump();
                    valid = Some(self.valid_clause()?);
                }
                T::Keyword(K::Where) if where_clause.is_none() => {
                    self.bump();
                    where_clause = Some(self.where_expr()?);
                }
                _ => break,
            }
        }
        Ok(Statement::Replace {
            var,
            assignments,
            valid,
            where_clause,
        })
    }

    fn assignment_list(&mut self) -> TquelResult<Vec<Assignment>> {
        self.expect(T::LParen)?;
        let mut out = vec![self.assignment()?];
        while matches!(self.peek(), T::Comma) {
            self.bump();
            out.push(self.assignment()?);
        }
        self.expect(T::RParen)?;
        Ok(out)
    }

    fn assignment(&mut self) -> TquelResult<Assignment> {
        let attr = self.ident()?;
        self.expect(T::Eq)?;
        let value = self.operand()?;
        Ok(Assignment { attr, value })
    }

    fn create(&mut self) -> TquelResult<Statement> {
        self.expect_kw(K::Create)?;
        let relation = self.ident()?;
        self.expect(T::LParen)?;
        let mut attrs = Vec::new();
        loop {
            let name = self.ident()?;
            self.expect(T::Eq)?;
            let ty = self.attr_type()?;
            attrs.push((name, ty));
            if matches!(self.peek(), T::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(T::RParen)?;
        let class = if self.eat_kw(K::As) {
            let class = match self.peek() {
                T::Keyword(K::Static) => ClassAst::Static,
                T::Keyword(K::Rollback) => ClassAst::Rollback,
                T::Keyword(K::Historical) => ClassAst::Historical,
                T::Keyword(K::Temporal) => ClassAst::Temporal,
                _ => {
                    // Name the token after the offending one, as before.
                    self.bump();
                    return Err(self.error("expected a relation class after 'as'"));
                }
            };
            self.bump();
            class
        } else {
            ClassAst::Temporal
        };
        let event = if self.eat_kw(K::Event) {
            true
        } else {
            let _ = self.eat_kw(K::Interval);
            false
        };
        Ok(Statement::Create {
            relation,
            attrs,
            class,
            event,
        })
    }

    fn attr_type(&mut self) -> TquelResult<AttrType> {
        match self.ident_str()? {
            "str" | "string" | "char" => Ok(AttrType::Str),
            "int" | "i4" | "integer" => Ok(AttrType::Int),
            "float" | "f8" => Ok(AttrType::Float),
            "bool" | "boolean" => Ok(AttrType::Bool),
            "date" => Ok(AttrType::Date),
            other => Err(TquelError::Semantic(format!(
                "unknown attribute type {other:?}"
            ))),
        }
    }

    fn destroy(&mut self) -> TquelResult<Statement> {
        self.expect_kw(K::Destroy)?;
        let relation = self.ident()?;
        Ok(Statement::Destroy { relation })
    }

    // ----------------------------------------------------------------
    // Where expressions
    // ----------------------------------------------------------------

    fn where_expr(&mut self) -> TquelResult<WhereExpr> {
        self.where_or()
    }

    fn where_or(&mut self) -> TquelResult<WhereExpr> {
        let mut left = self.where_and()?;
        while self.eat_kw(K::Or) {
            let right = self.where_and()?;
            left = WhereExpr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn where_and(&mut self) -> TquelResult<WhereExpr> {
        let mut left = self.where_not()?;
        while self.eat_kw(K::And) {
            let right = self.where_not()?;
            left = WhereExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn where_not(&mut self) -> TquelResult<WhereExpr> {
        if self.eat_kw(K::Not) {
            Ok(WhereExpr::Not(Box::new(self.where_not()?)))
        } else {
            self.where_primary()
        }
    }

    fn where_primary(&mut self) -> TquelResult<WhereExpr> {
        if matches!(self.peek(), T::LParen) {
            self.bump();
            let inner = self.where_or()?;
            self.expect(T::RParen)?;
            return Ok(inner);
        }
        let left = self.operand()?;
        let op = match self.peek() {
            T::Eq => CmpOpAst::Eq,
            T::Ne => CmpOpAst::Ne,
            T::Lt => CmpOpAst::Lt,
            T::Le => CmpOpAst::Le,
            T::Gt => CmpOpAst::Gt,
            T::Ge => CmpOpAst::Ge,
            _ => return Err(self.error("expected a comparison operator")),
        };
        self.bump();
        let right = self.operand()?;
        Ok(WhereExpr::Cmp(op, left, right))
    }

    fn operand(&mut self) -> TquelResult<Operand> {
        match self.peek() {
            // `true`/`false` not followed by `.`: a range variable may
            // still carry either name.
            T::Ident(word @ ("true" | "false"))
                if !matches!(self.tokens.get(self.pos + 1).map(|t| &t.kind), Some(T::Dot)) =>
            {
                let b = *word == "true";
                self.bump();
                Ok(Operand::Bool(b))
            }
            T::Ident(_) => {
                let var = self.ident()?;
                self.expect(T::Dot)?;
                let attr = self.ident()?;
                Ok(Operand::Attr(AttrRef { var, attr }))
            }
            T::Str(s) => {
                let s = s.to_string();
                self.bump();
                Ok(Operand::Str(s))
            }
            T::Int(i) => {
                let i = *i;
                self.bump();
                Ok(Operand::Int(i))
            }
            T::Float(x) => {
                let x = *x;
                self.bump();
                Ok(Operand::Float(x))
            }
            _ => Err(self.error("expected an operand")),
        }
    }

    // ----------------------------------------------------------------
    // Temporal expressions and when predicates
    // ----------------------------------------------------------------

    /// `allow_overlap`: whether a top-level binary `overlap` is parsed as
    /// the intersection expression (valid-clause position) or left for
    /// the caller (when-predicate position).
    fn texpr(&mut self, allow_overlap: bool) -> TquelResult<TexprAst> {
        let mut left = self.texpr_prefix()?;
        loop {
            if self.eat_kw(K::Extend) {
                let right = self.texpr_prefix()?;
                left = TexprAst::Extend(Box::new(left), Box::new(right));
            } else if allow_overlap && matches!(self.peek(), T::Keyword(K::Overlap)) {
                self.bump();
                let right = self.texpr_prefix()?;
                left = TexprAst::Overlap(Box::new(left), Box::new(right));
            } else {
                break;
            }
        }
        Ok(left)
    }

    fn texpr_prefix(&mut self) -> TquelResult<TexprAst> {
        if self.eat_kw(K::Start) {
            self.expect_kw(K::Of)?;
            return Ok(TexprAst::StartOf(Box::new(self.texpr_prefix()?)));
        }
        if self.eat_kw(K::End) {
            self.expect_kw(K::Of)?;
            return Ok(TexprAst::EndOf(Box::new(self.texpr_prefix()?)));
        }
        match self.peek() {
            T::Str(s) => {
                let s = s.to_string();
                self.bump();
                Ok(TexprAst::Date(s))
            }
            T::Keyword(K::Forever) => {
                self.bump();
                Ok(TexprAst::Forever)
            }
            T::Ident(_) => Ok(TexprAst::Var(self.ident()?)),
            T::LParen => {
                self.bump();
                let inner = self.texpr(true)?;
                self.expect(T::RParen)?;
                Ok(inner)
            }
            _ => Err(self.error("expected a temporal expression")),
        }
    }

    fn when_expr(&mut self) -> TquelResult<WhenExpr> {
        self.when_or()
    }

    fn when_or(&mut self) -> TquelResult<WhenExpr> {
        let mut left = self.when_and()?;
        while self.eat_kw(K::Or) {
            let right = self.when_and()?;
            left = WhenExpr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn when_and(&mut self) -> TquelResult<WhenExpr> {
        let mut left = self.when_not()?;
        while self.eat_kw(K::And) {
            let right = self.when_not()?;
            left = WhenExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn when_not(&mut self) -> TquelResult<WhenExpr> {
        if self.eat_kw(K::Not) {
            Ok(WhenExpr::Not(Box::new(self.when_not()?)))
        } else {
            self.when_primary()
        }
    }

    fn when_primary(&mut self) -> TquelResult<WhenExpr> {
        // `( … )` is ambiguous: it may parenthesize a predicate or a
        // temporal expression.  Try the predicate reading first — but if
        // the closing paren is followed by a temporal operator, the
        // parens enclosed a temporal expression (`(a overlap b) equal c`),
        // so backtrack and take the expression path.
        if matches!(self.peek(), T::LParen) {
            let save = self.pos;
            self.bump();
            if let Ok(inner) = self.when_or() {
                if matches!(self.peek(), T::RParen) {
                    self.bump();
                    let continues_as_texpr = matches!(
                        self.peek(),
                        T::Keyword(K::Overlap)
                            | T::Keyword(K::Precede)
                            | T::Keyword(K::Equal)
                            | T::Keyword(K::Extend)
                    );
                    if !continues_as_texpr {
                        return Ok(inner);
                    }
                }
            }
            self.pos = save;
        }
        let left = self.texpr(false)?;
        if self.eat_kw(K::Overlap) {
            Ok(WhenExpr::Overlap(left, self.texpr(false)?))
        } else if self.eat_kw(K::Precede) {
            Ok(WhenExpr::Precede(left, self.texpr(false)?))
        } else if self.eat_kw(K::Equal) {
            Ok(WhenExpr::Equal(left, self.texpr(false)?))
        } else {
            Err(self.error("expected 'overlap', 'precede', or 'equal'"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_range_and_simple_retrieve() {
        let stmts = parse_program(
            r#"
            range of f is faculty
            retrieve (f.rank) where f.name = "Merrie"
            "#,
        )
        .unwrap();
        assert_eq!(stmts.len(), 2);
        assert_eq!(
            stmts[0],
            Statement::RangeDecl {
                var: "f".into(),
                relation: "faculty".into()
            }
        );
        match &stmts[1] {
            Statement::Retrieve(r) => {
                assert_eq!(r.targets.len(), 1);
                assert_eq!(
                    r.targets[0].expr,
                    TargetExpr::Attr(AttrRef {
                        var: "f".into(),
                        attr: "rank".into()
                    })
                );
                assert!(r.where_clause.is_some());
                assert!(r.as_of.is_none());
            }
            other => panic!("expected retrieve, got {other:?}"),
        }
    }

    #[test]
    fn parses_the_bitemporal_flagship_query() {
        let stmt = parse_statement(
            r#"retrieve (f1.rank)
               where f1.name = "Merrie" and f2.name = "Tom"
               when f1 overlap start of f2
               as of "12/10/82""#,
        )
        .unwrap();
        match stmt {
            Statement::Retrieve(r) => {
                match r.when_clause.unwrap() {
                    WhenExpr::Overlap(TexprAst::Var(v), TexprAst::StartOf(inner)) => {
                        assert_eq!(v, "f1");
                        assert_eq!(*inner, TexprAst::Var("f2".into()));
                    }
                    other => panic!("bad when clause: {other:?}"),
                }
                assert_eq!(r.as_of.unwrap().at, TexprAst::Date("12/10/82".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_valid_clauses() {
        let stmt = parse_statement(
            r#"retrieve (f.name) valid from start of f to "01/01/85" where f.rank = "full""#,
        )
        .unwrap();
        match stmt {
            Statement::Retrieve(r) => match r.valid.unwrap() {
                ValidClause::FromTo(TexprAst::StartOf(_), TexprAst::Date(d)) => {
                    assert_eq!(d, "01/01/85");
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        let stmt = parse_statement(r#"retrieve (f.name) valid at end of f"#).unwrap();
        match stmt {
            Statement::Retrieve(r) => {
                assert!(matches!(r.valid, Some(ValidClause::At(TexprAst::EndOf(_)))))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_modifications() {
        let stmt = parse_statement(
            r#"append to faculty (name = "Ilsoo", rank = "assistant") valid from "01/01/85" to "12/31/99""#,
        )
        .unwrap();
        match stmt {
            Statement::Append {
                relation,
                assignments,
                valid,
            } => {
                assert_eq!(relation, "faculty");
                assert_eq!(assignments.len(), 2);
                assert!(valid.is_some());
            }
            other => panic!("{other:?}"),
        }
        let stmt = parse_statement(r#"delete f where f.name = "Mike""#).unwrap();
        assert!(matches!(stmt, Statement::Delete { .. }));
        let stmt = parse_statement(
            r#"replace f (rank = "full") valid from "12/01/82" to "01/01/99" where f.name = "Merrie""#,
        )
        .unwrap();
        assert!(matches!(stmt, Statement::Replace { .. }));
    }

    #[test]
    fn parses_create_and_destroy() {
        let stmt = parse_statement(
            "create promotion (name = str, rank = str, effective = date) as temporal event",
        )
        .unwrap();
        match stmt {
            Statement::Create {
                relation,
                attrs,
                class,
                event,
            } => {
                assert_eq!(relation, "promotion");
                assert_eq!(attrs.len(), 3);
                assert_eq!(attrs[2].1, AttrType::Date);
                assert_eq!(class, ClassAst::Temporal);
                assert!(event);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_statement("destroy faculty").unwrap(),
            Statement::Destroy { .. }
        ));
        assert!(matches!(
            parse_statement("create r (a = int) as rollback").unwrap(),
            Statement::Create {
                class: ClassAst::Rollback,
                event: false,
                ..
            }
        ));
    }

    #[test]
    fn boolean_precedence_in_where() {
        // a or b and c  parses as  a or (b and c)
        let stmt =
            parse_statement(r#"retrieve (f.rank) where f.a = "1" or f.b = "2" and f.c = "3""#)
                .unwrap();
        match stmt {
            Statement::Retrieve(r) => match r.where_clause.unwrap() {
                WhereExpr::Or(_, right) => {
                    assert!(matches!(*right, WhereExpr::And(_, _)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn when_clause_booleans_and_parens() {
        let stmt = parse_statement(
            r#"retrieve (f1.rank)
               when (f1 overlap f2 or f1 precede f2) and not f2 equal f1"#,
        )
        .unwrap();
        match stmt {
            Statement::Retrieve(r) => match r.when_clause.unwrap() {
                WhenExpr::And(l, r2) => {
                    assert!(matches!(*l, WhenExpr::Or(_, _)));
                    assert!(matches!(*r2, WhenExpr::Not(_)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn overlap_as_expression_inside_valid() {
        let stmt =
            parse_statement("retrieve (f1.rank) valid from start of (f1 overlap f2) to end of f1")
                .unwrap();
        match stmt {
            Statement::Retrieve(r) => match r.valid.unwrap() {
                ValidClause::FromTo(TexprAst::StartOf(inner), _) => {
                    assert!(matches!(*inner, TexprAst::Overlap(_, _)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn as_of_through() {
        let stmt =
            parse_statement(r#"retrieve (f.rank) as of "12/10/82" through "12/20/82""#).unwrap();
        match stmt {
            Statement::Retrieve(r) => {
                let ao = r.as_of.unwrap();
                assert_eq!(ao.through, Some(TexprAst::Date("12/20/82".into())));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_reporting() {
        assert!(matches!(
            parse_statement("retrieve f.rank"),
            Err(TquelError::Parse { .. })
        ));
        assert!(parse_statement("range of f").is_err());
        assert!(parse_statement("retrieve (f.rank) where f.name").is_err());
        assert!(parse_statement("retrieve (f.rank) when f1 f2").is_err());
        assert!(parse_statement("retrieve (f.rank) extra").is_err());
        assert!(parse_statement("create r (a = blob)").is_err());
        // `freeze` is no statement: it fails like any unknown word.
        assert!(matches!(
            parse_statement("freeze faculty"),
            Err(TquelError::Parse { .. })
        ));
    }

    #[test]
    fn analyze_is_contextual() {
        assert_eq!(
            parse_statement("analyze faculty").unwrap(),
            Statement::Analyze {
                relation: "faculty".into()
            }
        );
        // Case-insensitive, like the other contextual statement words.
        assert!(matches!(
            parse_statement("ANALYZE faculty").unwrap(),
            Statement::Analyze { .. }
        ));
        // The word stays available as an ordinary identifier elsewhere.
        assert!(parse_statement("range of a is analyze").is_ok());
        // A relation name is mandatory.
        assert!(parse_statement("analyze").is_err());
    }

    #[test]
    fn named_targets() {
        let stmt = parse_statement("retrieve (current_rank = f.rank, f.name)").unwrap();
        match stmt {
            Statement::Retrieve(r) => {
                assert_eq!(r.targets[0].name.as_deref(), Some("current_rank"));
                assert_eq!(r.targets[1].name, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregate_targets() {
        let stmt =
            parse_statement(r#"retrieve (n = count(f.name), min(f.salary)) where f.rank = "full""#)
                .unwrap();
        match stmt {
            Statement::Retrieve(r) => {
                assert_eq!(r.targets.len(), 2);
                assert_eq!(r.targets[0].name.as_deref(), Some("n"));
                assert!(matches!(
                    r.targets[0].expr,
                    TargetExpr::Aggregate(AggFunc::Count, _)
                ));
                assert_eq!(r.targets[1].name, None);
                assert!(matches!(
                    r.targets[1].expr,
                    TargetExpr::Aggregate(AggFunc::Min, _)
                ));
            }
            other => panic!("{other:?}"),
        }
        // Unknown function names are rejected with a clear message.
        let err = parse_statement("retrieve (median(f.salary))").unwrap_err();
        assert!(err.to_string().contains("aggregate"), "{err}");
    }
}
