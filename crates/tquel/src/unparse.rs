//! Unparsing: statements back to canonical TQuel text.
//!
//! `parse_statement(unparse(s)) == s` for every statement — the
//! round-trip property test in `tests/prop_parser.rs` is what keeps the
//! parser and this printer honest with each other.  Binary operators
//! are parenthesized conservatively, so the output is unambiguous
//! regardless of precedence.

use std::fmt::Write as _;

use chronos_core::value::AttrType;

use crate::ast::{
    AsOfClause, Assignment, AttrRef, ClassAst, CmpOpAst, Operand, Retrieve, Statement, Target,
    TargetExpr, TexprAst, ValidClause, WhenExpr, WhereExpr,
};

/// Renders a statement as parseable TQuel.
pub fn unparse(stmt: &Statement) -> String {
    let mut out = String::new();
    print_statement(stmt, Literals::Keep, &mut out);
    out
}

/// Renders a statement as parseable TQuel with every scalar and date
/// literal written as `"?"`: the statement's literal-insensitive shape
/// (see [`fingerprint`](crate::fingerprint::fingerprint)).
pub(crate) fn unparse_shape(stmt: &Statement, out: &mut String) {
    print_statement(stmt, Literals::Mask, out);
}

/// Whether literals are printed as written or masked as `"?"`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Literals {
    Keep,
    Mask,
}

fn print_statement(stmt: &Statement, lit: Literals, out: &mut String) {
    match stmt {
        Statement::RangeDecl { var, relation } => {
            let _ = write!(out, "range of {var} is {relation}");
        }
        Statement::Retrieve(r) => unparse_retrieve(r, lit, out),
        Statement::Append {
            relation,
            assignments,
            valid,
        } => {
            let _ = write!(out, "append to {relation} ");
            unparse_assignments(assignments, lit, out);
            if let Some(v) = valid {
                out.push(' ');
                unparse_valid(v, lit, out);
            }
        }
        Statement::Delete { var, where_clause } => {
            let _ = write!(out, "delete {var}");
            if let Some(w) = where_clause {
                out.push_str(" where ");
                unparse_where(w, lit, out);
            }
        }
        Statement::Replace {
            var,
            assignments,
            valid,
            where_clause,
        } => {
            let _ = write!(out, "replace {var} ");
            unparse_assignments(assignments, lit, out);
            if let Some(v) = valid {
                out.push(' ');
                unparse_valid(v, lit, out);
            }
            if let Some(w) = where_clause {
                out.push_str(" where ");
                unparse_where(w, lit, out);
            }
        }
        Statement::Create {
            relation,
            attrs,
            class,
            event,
        } => {
            let _ = write!(out, "create {relation} (");
            for (i, (name, ty)) in attrs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let ty = match ty {
                    AttrType::Str => "str",
                    AttrType::Int => "int",
                    AttrType::Float => "float",
                    AttrType::Bool => "bool",
                    AttrType::Date => "date",
                };
                let _ = write!(out, "{name} = {ty}");
            }
            out.push(')');
            let class = match class {
                ClassAst::Static => "static",
                ClassAst::Rollback => "rollback",
                ClassAst::Historical => "historical",
                ClassAst::Temporal => "temporal",
            };
            let _ = write!(out, " as {class}");
            out.push_str(if *event { " event" } else { " interval" });
        }
        Statement::Destroy { relation } => {
            let _ = write!(out, "destroy {relation}");
        }
        Statement::Explain { profile, inner } => {
            out.push_str(if *profile { "profile " } else { "explain " });
            print_statement(inner, lit, out);
        }
        Statement::Analyze { relation } => {
            let _ = write!(out, "analyze {relation}");
        }
    }
}

fn unparse_retrieve(r: &Retrieve, lit: Literals, out: &mut String) {
    out.push_str("retrieve ");
    if let Some(into) = &r.into {
        let _ = write!(out, "into {into} ");
    }
    out.push('(');
    for (i, t) in r.targets.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        unparse_target(t, out);
    }
    out.push(')');
    if let Some(v) = &r.valid {
        out.push(' ');
        unparse_valid(v, lit, out);
    }
    if let Some(w) = &r.where_clause {
        out.push_str(" where ");
        unparse_where(w, lit, out);
    }
    if let Some(w) = &r.when_clause {
        out.push_str(" when ");
        unparse_when(w, lit, out);
    }
    if let Some(AsOfClause { at, through }) = &r.as_of {
        out.push_str(" as of ");
        unparse_texpr(at, lit, out);
        if let Some(t) = through {
            out.push_str(" through ");
            unparse_texpr(t, lit, out);
        }
    }
}

fn unparse_target(t: &Target, out: &mut String) {
    if let Some(name) = &t.name {
        let _ = write!(out, "{name} = ");
    }
    match &t.expr {
        TargetExpr::Attr(a) => unparse_attr(a, out),
        TargetExpr::Aggregate(func, a) => {
            let _ = write!(out, "{}(", func.as_str());
            unparse_attr(a, out);
            out.push(')');
        }
    }
}

fn unparse_attr(a: &AttrRef, out: &mut String) {
    out.push_str(&a.var);
    out.push('.');
    out.push_str(&a.attr);
}

fn unparse_assignments(assignments: &[Assignment], lit: Literals, out: &mut String) {
    out.push('(');
    for (i, a) in assignments.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{} = ", a.attr);
        unparse_operand(&a.value, lit, out);
    }
    out.push(')');
}

fn escape_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn unparse_operand(op: &Operand, lit: Literals, out: &mut String) {
    match op {
        Operand::Attr(a) => unparse_attr(a, out),
        Operand::Str(_) | Operand::Int(_) | Operand::Float(_) | Operand::Bool(_)
            if lit == Literals::Mask =>
        {
            out.push_str("\"?\"")
        }
        Operand::Str(s) => escape_str(s, out),
        Operand::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Operand::Float(x) => {
            let mut text = format!("{x}");
            if !text.contains('.') {
                text.push_str(".0");
            }
            out.push_str(&text);
        }
        Operand::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

fn unparse_where(w: &WhereExpr, lit: Literals, out: &mut String) {
    match w {
        WhereExpr::Cmp(op, a, b) => {
            unparse_operand(a, lit, out);
            let op = match op {
                CmpOpAst::Eq => "=",
                CmpOpAst::Ne => "!=",
                CmpOpAst::Lt => "<",
                CmpOpAst::Le => "<=",
                CmpOpAst::Gt => ">",
                CmpOpAst::Ge => ">=",
            };
            out.push(' ');
            out.push_str(op);
            out.push(' ');
            unparse_operand(b, lit, out);
        }
        WhereExpr::And(a, b) => {
            out.push('(');
            unparse_where(a, lit, out);
            out.push_str(" and ");
            unparse_where(b, lit, out);
            out.push(')');
        }
        WhereExpr::Or(a, b) => {
            out.push('(');
            unparse_where(a, lit, out);
            out.push_str(" or ");
            unparse_where(b, lit, out);
            out.push(')');
        }
        WhereExpr::Not(a) => {
            out.push_str("not ");
            unparse_where_primary(a, lit, out);
        }
    }
}

fn unparse_where_primary(w: &WhereExpr, lit: Literals, out: &mut String) {
    match w {
        // Compounds under `not` must be parenthesized; And/Or already
        // self-parenthesize and Cmp/Not are primaries.
        WhereExpr::Cmp(..) => {
            out.push('(');
            unparse_where(w, lit, out);
            out.push(')');
        }
        _ => unparse_where(w, lit, out),
    }
}

fn unparse_when(w: &WhenExpr, lit: Literals, out: &mut String) {
    match w {
        WhenExpr::Overlap(a, b) => {
            unparse_texpr(a, lit, out);
            out.push_str(" overlap ");
            unparse_texpr(b, lit, out);
        }
        WhenExpr::Precede(a, b) => {
            unparse_texpr(a, lit, out);
            out.push_str(" precede ");
            unparse_texpr(b, lit, out);
        }
        WhenExpr::Equal(a, b) => {
            unparse_texpr(a, lit, out);
            out.push_str(" equal ");
            unparse_texpr(b, lit, out);
        }
        WhenExpr::And(a, b) => {
            out.push('(');
            unparse_when(a, lit, out);
            out.push_str(" and ");
            unparse_when(b, lit, out);
            out.push(')');
        }
        WhenExpr::Or(a, b) => {
            out.push('(');
            unparse_when(a, lit, out);
            out.push_str(" or ");
            unparse_when(b, lit, out);
            out.push(')');
        }
        WhenExpr::Not(a) => {
            out.push_str("not ");
            unparse_when_primary(a, lit, out);
        }
    }
}

fn unparse_when_primary(w: &WhenExpr, lit: Literals, out: &mut String) {
    match w {
        WhenExpr::Overlap(..) | WhenExpr::Precede(..) | WhenExpr::Equal(..) => {
            out.push('(');
            unparse_when(w, lit, out);
            out.push(')');
        }
        _ => unparse_when(w, lit, out),
    }
}

fn unparse_valid(v: &ValidClause, lit: Literals, out: &mut String) {
    match v {
        ValidClause::At(e) => {
            out.push_str("valid at ");
            unparse_texpr(e, lit, out);
        }
        ValidClause::FromTo(a, b) => {
            out.push_str("valid from ");
            unparse_texpr(a, lit, out);
            out.push_str(" to ");
            unparse_texpr(b, lit, out);
        }
    }
}

fn unparse_texpr(e: &TexprAst, lit: Literals, out: &mut String) {
    match e {
        TexprAst::Var(v) => out.push_str(v),
        TexprAst::Date(_) if lit == Literals::Mask => out.push_str("\"?\""),
        TexprAst::Date(d) => escape_str(d, out),
        TexprAst::Forever => out.push_str("forever"),
        TexprAst::StartOf(a) => {
            out.push_str("start of ");
            unparse_texpr(a, lit, out);
        }
        TexprAst::EndOf(a) => {
            out.push_str("end of ");
            unparse_texpr(a, lit, out);
        }
        TexprAst::Extend(a, b) => {
            out.push('(');
            unparse_texpr(a, lit, out);
            out.push_str(" extend ");
            unparse_texpr(b, lit, out);
            out.push(')');
        }
        TexprAst::Overlap(a, b) => {
            out.push('(');
            unparse_texpr(a, lit, out);
            out.push_str(" overlap ");
            unparse_texpr(b, lit, out);
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn round_trip(src: &str) {
        let ast = parse_statement(src).unwrap();
        let printed = unparse(&ast);
        let reparsed = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("unparse output unparseable: {printed:?}: {e}"));
        assert_eq!(reparsed, ast, "round trip changed the AST:\n  {printed}");
    }

    #[test]
    fn round_trips_the_paper_queries() {
        round_trip("range of f is faculty");
        round_trip(r#"retrieve (f.rank) where f.name = "Merrie""#);
        round_trip(r#"retrieve (f.rank) where f.name = "Merrie" as of "12/10/82""#);
        round_trip(
            r#"retrieve (f1.rank)
               where f1.name = "Merrie" and f2.name = "Tom"
               when f1 overlap start of f2
               as of "12/10/82""#,
        );
        round_trip(
            r#"append to faculty (name = "Merrie", rank = "associate")
               valid from "09/01/77" to forever"#,
        );
        round_trip(r#"delete f where f.name = "Mike""#);
        round_trip(
            r#"replace f (rank = "full") valid from "12/01/82" to forever
               where f.name = "Merrie""#,
        );
        round_trip("create promotion (name = str, effective = date) as temporal event");
        round_trip("destroy faculty");
    }

    #[test]
    fn round_trips_tricky_nesting() {
        round_trip(
            r#"retrieve (f.rank)
               when (f1 overlap f2 or f1 precede f2) and not f2 equal f1"#,
        );
        round_trip(
            "retrieve (f1.rank) valid from start of (f1 overlap f2) to end of (f1 extend f2)",
        );
        round_trip(r#"retrieve (f.rank) where not (f.a = "1" or f.b = "2")"#);
        round_trip(r#"retrieve (n = count(f.name), s = sum(f.salary))"#);
        round_trip(r#"retrieve (f.rank) as of "12/10/82" through "12/20/82""#);
        round_trip(r#"retrieve (f.a) where f.x = 3 and f.y = 2.5 and f.z != -7"#);
        round_trip(r#"retrieve into result (who = f.name)"#);
        // A boolean literal, and a range variable that shares its name.
        round_trip("append to h (b = true, c = false)");
        round_trip("retrieve (true.b) where true.b = false and false.b != true");
    }

    #[test]
    fn string_escapes_survive() {
        round_trip(r#"retrieve (f.rank) where f.name = "he said \"hi\"\n\t\\""#);
    }

    #[test]
    fn round_trips_explain_and_profile() {
        round_trip(r#"explain retrieve (f.rank) where f.name = "Merrie""#);
        round_trip(r#"profile retrieve (f.rank) as of "12/10/82""#);
        round_trip("explain destroy faculty");
        round_trip("analyze faculty");
        round_trip("explain analyze faculty");
        // `select` is a parse-time alias: it round-trips *as* retrieve.
        let alias = parse_statement(r#"profile select (f.rank) where f.name = "Tom""#).unwrap();
        let canonical =
            parse_statement(r#"profile retrieve (f.rank) where f.name = "Tom""#).unwrap();
        assert_eq!(alias, canonical);
        round_trip(&unparse(&alias));
    }
}
