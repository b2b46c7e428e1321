//! # chronos-tquel
//!
//! TQuel — the Temporal QUEry Language of Snodgrass (1984/1985) — as a
//! complete lexer, parser, semantic analyzer and evaluator.
//!
//! TQuel extends Quel (the INGRES tuple calculus) with three constructs,
//! all of which this crate implements:
//!
//! * the **`as of`** clause, effecting rollback on transaction time
//!   (`… as of "12/10/82"`, optionally `through` a second time);
//! * the **`valid`** clause (`valid at e` / `valid from e1 to e2`),
//!   computing the implicit valid time of derived tuples;
//! * the **`when`** predicate over tuple valid times, with the temporal
//!   constructors `start of`, `end of`, `extend` and the predicates
//!   `overlap`, `precede`, `equal`.
//!
//! Modification statements (`append`, `delete`, `replace`) and schema
//! statements (`create`, `destroy`) are parsed here and executed by
//! `chronos-db`.
//!
//! ## Example — the paper's flagship query
//!
//! ```
//! use chronos_tquel::parse_program;
//!
//! let stmts = parse_program(r#"
//!     range of f1 is faculty
//!     range of f2 is faculty
//!     retrieve (f1.rank)
//!     where f1.name = "Merrie" and f2.name = "Tom"
//!     when f1 overlap start of f2
//!     as of "12/10/82"
//! "#).unwrap();
//! assert_eq!(stmts.len(), 3);
//! ```

pub mod analyze;
pub mod ast;
pub mod error;
pub mod exec;
pub mod fingerprint;
pub mod parser;
pub mod printer;
pub mod provider;
pub mod token;
pub mod unparse;

pub use error::{TquelError, TquelResult};
pub use fingerprint::fingerprint;
pub use parser::{parse_program, parse_statement};
