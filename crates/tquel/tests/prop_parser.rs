//! Parser fuzzing: for every generated statement AST,
//! `parse(unparse(ast)) == ast`; and the lexer/parser never panic on
//! arbitrary input.

use chronos_tquel::ast::*;
use chronos_tquel::parser::parse_statement;
use chronos_tquel::token::Keyword;
use chronos_tquel::unparse::unparse;
use proptest::prelude::*;

/// Identifiers that can't collide with keywords or aggregate names.
fn arb_ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("not a keyword or aggregate", |s| {
        Keyword::from_str_ci(s).is_none() && AggFunc::from_name(s).is_none()
    })
}

fn arb_string_lit() -> impl Strategy<Value = String> {
    // Any printable content; the unparser escapes what needs escaping.
    "[a-zA-Z0-9 /:.\"\\\\\n\t'-]{0,12}"
}

fn arb_date_lit() -> impl Strategy<Value = String> {
    (1i32..=12, 1i32..=28, 0i32..=99).prop_map(|(m, d, y)| format!("{m:02}/{d:02}/{y:02}"))
}

fn arb_attr_ref() -> impl Strategy<Value = AttrRef> {
    (arb_ident(), arb_ident()).prop_map(|(var, attr)| AttrRef { var, attr })
}

fn arb_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        arb_attr_ref().prop_map(Operand::Attr),
        arb_string_lit().prop_map(Operand::Str),
        any::<i64>().prop_map(Operand::Int),
        // Floats as exact quarters so text round-trips exactly.
        (-10_000i32..10_000).prop_map(|q| Operand::Float(f64::from(q) / 4.0)),
        any::<bool>().prop_map(Operand::Bool),
    ]
}

fn arb_cmp_op() -> impl Strategy<Value = CmpOpAst> {
    prop_oneof![
        Just(CmpOpAst::Eq),
        Just(CmpOpAst::Ne),
        Just(CmpOpAst::Lt),
        Just(CmpOpAst::Le),
        Just(CmpOpAst::Gt),
        Just(CmpOpAst::Ge),
    ]
}

fn arb_where() -> impl Strategy<Value = WhereExpr> {
    let leaf = (arb_cmp_op(), arb_operand(), arb_operand())
        .prop_map(|(op, a, b)| WhereExpr::Cmp(op, a, b));
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| WhereExpr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| WhereExpr::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|a| WhereExpr::Not(Box::new(a))),
        ]
    })
}

fn arb_texpr() -> impl Strategy<Value = TexprAst> {
    let leaf = prop_oneof![
        arb_ident().prop_map(TexprAst::Var),
        arb_date_lit().prop_map(TexprAst::Date),
        Just(TexprAst::Forever),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|a| TexprAst::StartOf(Box::new(a))),
            inner.clone().prop_map(|a| TexprAst::EndOf(Box::new(a))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| TexprAst::Extend(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| TexprAst::Overlap(Box::new(a), Box::new(b))),
        ]
    })
}

fn arb_when() -> impl Strategy<Value = WhenExpr> {
    let leaf = prop_oneof![
        (arb_texpr(), arb_texpr()).prop_map(|(a, b)| WhenExpr::Overlap(a, b)),
        (arb_texpr(), arb_texpr()).prop_map(|(a, b)| WhenExpr::Precede(a, b)),
        (arb_texpr(), arb_texpr()).prop_map(|(a, b)| WhenExpr::Equal(a, b)),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| WhenExpr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| WhenExpr::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|a| WhenExpr::Not(Box::new(a))),
        ]
    })
}

fn arb_valid() -> impl Strategy<Value = ValidClause> {
    prop_oneof![
        arb_texpr().prop_map(ValidClause::At),
        (arb_texpr(), arb_texpr()).prop_map(|(a, b)| ValidClause::FromTo(a, b)),
    ]
}

fn arb_targets() -> impl Strategy<Value = Vec<Target>> {
    let agg = prop_oneof![
        Just(AggFunc::Count),
        Just(AggFunc::Sum),
        Just(AggFunc::Avg),
        Just(AggFunc::Min),
        Just(AggFunc::Max),
    ];
    let plain = (prop::option::of(arb_ident()), arb_attr_ref()).prop_map(|(name, a)| Target {
        name,
        expr: TargetExpr::Attr(a),
    });
    let aggregate =
        (prop::option::of(arb_ident()), agg, arb_attr_ref()).prop_map(|(name, f, a)| Target {
            name,
            expr: TargetExpr::Aggregate(f, a),
        });
    // Homogeneous lists (the analyzer rejects mixtures anyway; the
    // parser accepts both shapes).
    prop_oneof![
        prop::collection::vec(plain, 1..4),
        prop::collection::vec(aggregate, 1..4),
    ]
}

fn arb_retrieve() -> impl Strategy<Value = Statement> {
    (
        prop::option::of(arb_ident()),
        arb_targets(),
        prop::option::of(arb_valid()),
        prop::option::of(arb_where()),
        prop::option::of(arb_when()),
        prop::option::of((arb_texpr(), prop::option::of(arb_texpr()))),
    )
        .prop_map(|(into, targets, valid, where_clause, when_clause, as_of)| {
            Statement::Retrieve(Retrieve {
                into,
                targets,
                valid,
                where_clause,
                when_clause,
                as_of: as_of.map(|(at, through)| AsOfClause { at, through }),
            })
        })
}

fn arb_assignments() -> impl Strategy<Value = Vec<Assignment>> {
    prop::collection::vec(
        (arb_ident(), arb_operand()).prop_map(|(attr, value)| Assignment { attr, value }),
        1..4,
    )
}

fn arb_statement() -> impl Strategy<Value = Statement> {
    prop_oneof![
        (arb_ident(), arb_ident())
            .prop_map(|(var, relation)| Statement::RangeDecl { var, relation }),
        arb_retrieve(),
        (
            arb_ident(),
            arb_assignments(),
            prop::option::of(arb_valid())
        )
            .prop_map(|(relation, assignments, valid)| Statement::Append {
                relation,
                assignments,
                valid,
            }),
        (arb_ident(), prop::option::of(arb_where()))
            .prop_map(|(var, where_clause)| Statement::Delete { var, where_clause }),
        (
            arb_ident(),
            arb_assignments(),
            prop::option::of(arb_valid()),
            prop::option::of(arb_where())
        )
            .prop_map(
                |(var, assignments, valid, where_clause)| Statement::Replace {
                    var,
                    assignments,
                    valid,
                    where_clause,
                }
            ),
        (
            arb_ident(),
            prop::collection::vec(
                (
                    arb_ident(),
                    prop_oneof![
                        Just(chronos_core::value::AttrType::Str),
                        Just(chronos_core::value::AttrType::Int),
                        Just(chronos_core::value::AttrType::Float),
                        Just(chronos_core::value::AttrType::Bool),
                        Just(chronos_core::value::AttrType::Date),
                    ]
                ),
                1..4
            )
            .prop_filter("distinct attribute names", |attrs| {
                let mut names: Vec<&String> = attrs.iter().map(|(n, _)| n).collect();
                names.sort();
                names.dedup();
                names.len() == attrs.len()
            }),
            prop_oneof![
                Just(ClassAst::Static),
                Just(ClassAst::Rollback),
                Just(ClassAst::Historical),
                Just(ClassAst::Temporal),
            ],
            any::<bool>()
        )
            .prop_map(|(relation, attrs, class, event)| Statement::Create {
                relation,
                attrs,
                class,
                event,
            }),
        arb_ident().prop_map(|relation| Statement::Destroy { relation }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn unparse_parse_round_trip(stmt in arb_statement()) {
        let printed = unparse(&stmt);
        let reparsed = parse_statement(&printed).map_err(|e| {
            TestCaseError::fail(format!("unparse output failed to parse: {printed:?}: {e}"))
        })?;
        prop_assert_eq!(reparsed, stmt, "round trip changed the AST via {}", printed);
    }

    #[test]
    fn lexer_and_parser_never_panic(src in "\\PC{0,80}") {
        let _ = chronos_tquel::token::lex(&src);
        let _ = parse_statement(&src); // errors allowed; panics are not
    }

    #[test]
    fn parser_never_panics_on_token_soup(
        words in prop::collection::vec(
            prop_oneof![
                Just("retrieve".to_string()),
                Just("range".to_string()),
                Just("of".to_string()),
                Just("when".to_string()),
                Just("overlap".to_string()),
                Just("start".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just(",".to_string()),
                Just(".".to_string()),
                Just("=".to_string()),
                Just("\"x\"".to_string()),
                Just("f".to_string()),
                Just("forever".to_string()),
                Just("as".to_string()),
            ],
            0..25
        )
    ) {
        let src = words.join(" ");
        let _ = parse_statement(&src);
    }
}
