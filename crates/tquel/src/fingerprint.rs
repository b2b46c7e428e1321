//! Statement fingerprinting: literal-insensitive workload shapes.
//!
//! Two statements that differ only in their literals — `where f.name =
//! "Merrie"` versus `where f.name = "Tom"`, `as of "12/10/82"` versus
//! `as of "06/01/81"` — exercise the same plan and belong to the same
//! workload entry.  The statement is unparsed with every scalar literal
//! (string, int, float) written as the string `"?"` and every date
//! literal as the date `"?"`, preserving everything structural:
//! statement kind, range variables, relations, attribute names,
//! operators, clause order, and nesting.  That text is hashed with
//! FNV-1a (64-bit), giving a stable fingerprint plus a human-readable
//! normalized text like
//!
//! ```text
//! retrieve (f.rank) where f.name = "?" as of "?"
//! ```
//!
//! The rules, with worked examples, are documented in DESIGN.md §6e.
//! Because the normalized text is itself valid TQuel (`"?"` is an
//! ordinary string literal), it round-trips through the parser — a
//! property the tests pin down.

use chronos_obs::fingerprint::shape_hash;

use crate::ast::Statement;
use crate::unparse::unparse_shape;

/// Fingerprints a statement: returns the FNV-1a hash of the normalized
/// text together with the normalized text itself.
pub fn fingerprint(stmt: &Statement) -> (u64, String) {
    // One allocation covers a typical shape, where growing from empty
    // would take five.
    let mut text = String::with_capacity(128);
    normalize_into(stmt, &mut text);
    (shape_hash(&text), text)
}

/// Writes `stmt`'s normalized text over `text`, reusing its buffer:
/// what a session runs for every monitored statement (the fingerprint
/// store hashes a text only when it first meets it).
pub fn normalize_into(stmt: &Statement, text: &mut String) {
    text.clear();
    unparse_shape(stmt, text);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn fp(src: &str) -> (u64, String) {
        fingerprint(&parse_statement(src).unwrap())
    }

    #[test]
    fn literals_collapse_to_one_fingerprint() {
        let (h1, t1) = fp(r#"retrieve (f.rank) where f.name = "Merrie" as of "12/10/82""#);
        let (h2, t2) = fp(r#"retrieve (f.rank) where f.name = "Tom" as of "06/01/81""#);
        assert_eq!(h1, h2);
        assert_eq!(t1, t2);
        assert_eq!(t1, r#"retrieve (f.rank) where f.name = "?" as of "?""#);
        // Int and float literals normalize the same way.
        let (h3, _) = fp("retrieve (f.a) where f.x = 3");
        let (h4, _) = fp("retrieve (f.a) where f.x = 99");
        assert_eq!(h3, h4);
    }

    #[test]
    fn structure_still_distinguishes() {
        let (base, _) = fp(r#"retrieve (f.rank) where f.name = "Merrie""#);
        // Different target list, predicate shape, attribute, or kind:
        // all distinct shapes.
        assert_ne!(base, fp(r#"retrieve (f.name) where f.name = "Merrie""#).0);
        assert_ne!(base, fp(r#"retrieve (f.rank) where f.rank = "Merrie""#).0);
        assert_ne!(base, fp(r#"retrieve (f.rank) where f.name != "Merrie""#).0);
        assert_ne!(base, fp(r#"retrieve (f.rank)"#).0);
        assert_ne!(base, fp(r#"delete f where f.name = "Merrie""#).0);
    }

    #[test]
    fn normalized_text_round_trips() {
        for src in [
            r#"retrieve (f.rank) where f.name = "Merrie" and f.x = 3 or not f.y = 2.5"#,
            r#"append to faculty (name = "Tom", rank = "full") valid from "09/01/77" to forever"#,
            r#"replace f (rank = "full") valid at "12/01/82" where f.name = "Merrie""#,
            r#"retrieve (f1.rank) when f1 overlap start of f2 as of "12/10/82" through "12/20/82""#,
            "explain analyze faculty",
        ] {
            let (hash, text) = fp(src);
            let reparsed = parse_statement(&text)
                .unwrap_or_else(|e| panic!("normalized text unparseable: {text:?}: {e}"));
            assert_eq!(
                fingerprint(&reparsed),
                (hash, text.clone()),
                "round trip changed the shape: {text}"
            );
        }
    }

    #[test]
    fn structural_statements_pass_through() {
        let (_, t) = fp("analyze faculty");
        assert_eq!(t, "analyze faculty");
        let (_, t) = fp("range of f is faculty");
        assert_eq!(t, "range of f is faculty");
        // Explain wraps: the inner statement's literals still collapse.
        let (h1, _) = fp(r#"explain retrieve (f.rank) where f.name = "A""#);
        let (h2, _) = fp(r#"explain retrieve (f.rank) where f.name = "B""#);
        assert_eq!(h1, h2);
    }

    #[test]
    fn hash_is_stable_across_runs() {
        // FNV-1a is seedless: pin one value so accidental algorithm
        // changes (which would orphan persisted fingerprints) show up.
        assert_eq!(shape_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(shape_hash("a"), 0xaf63_dc4c_8601_ec8c);
        let (hash, text) = fp(r#"retrieve (f.rank) where f.name = "Merrie""#);
        assert_eq!(hash, shape_hash(&text));
    }
}
