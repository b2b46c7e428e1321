//! The catalog: durable relation definitions.
//!
//! The catalog maps relation names to `(rel_id, schema, class,
//! signature)`.  For durable databases it is persisted to a `catalog`
//! file in the database directory — a checksummed binary image rewritten
//! on every DDL statement — while committed data lives in the shared
//! write-ahead log, keyed by `rel_id`.
//!
//! The catalog's magic also names the format of the files beside it.
//! `CHRONCAT` is a directory whose log and checkpoint share no strings;
//! `CHRONCA2` one whose may.  An open rewrites a `CHRONCAT` catalog
//! under `CHRONCA2` before it logs anything, so a build that predates
//! shared strings stops at `bad catalog magic` instead of cutting off a
//! log it cannot decode.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;

use chronos_core::schema::{Attribute, RelationClass, Schema, TemporalSignature};
use chronos_core::value::AttrType;
use chronos_obs::Disk;
use chronos_storage::codec::{crc32, put_bytes, put_uvarint, Reader};
use chronos_storage::{StorageError, StorageResult};

/// One catalog entry.
#[derive(Clone, Debug, PartialEq)]
pub struct CatalogEntry {
    /// Stable id used in the write-ahead log.
    pub rel_id: u32,
    /// Explicit attributes.
    pub schema: Schema,
    /// The relation's class.
    pub class: RelationClass,
    /// Interval or event valid time.
    pub signature: TemporalSignature,
}

/// The set of relation definitions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Catalog {
    entries: BTreeMap<String, CatalogEntry>,
    next_rel_id: u32,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Looks up a relation.
    pub fn get(&self, name: &str) -> Option<&CatalogEntry> {
        self.entries.get(name)
    }

    /// Iterates entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &CatalogEntry)> {
        self.entries.iter()
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no relations are defined.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Defines a relation, allocating a fresh `rel_id`.
    pub fn define(
        &mut self,
        name: &str,
        schema: Schema,
        class: RelationClass,
        signature: TemporalSignature,
    ) -> Result<u32, String> {
        if self.entries.contains_key(name) {
            return Err(format!("relation {name:?} already exists"));
        }
        let rel_id = self.next_rel_id;
        self.next_rel_id += 1;
        self.entries.insert(
            name.to_string(),
            CatalogEntry {
                rel_id,
                schema,
                class,
                signature,
            },
        );
        Ok(rel_id)
    }

    /// Makes every `rel_id` up to `rel_id` spent: no later definition
    /// takes one of them.
    pub fn reserve_ids_through(&mut self, rel_id: u32) {
        self.next_rel_id = self.next_rel_id.max(rel_id + 1);
    }

    /// Removes a relation definition.  `rel_id`s are never reused, so
    /// log records of dropped relations stay unambiguous.
    pub fn remove(&mut self, name: &str) -> Option<CatalogEntry> {
        self.entries.remove(name)
    }

    // ----------------------------------------------------------------
    // Persistence
    // ----------------------------------------------------------------

    const MAGIC: &'static [u8; 8] = b"CHRONCA2";
    /// The same body, beside a log and checkpoint with no shared string.
    const MAGIC_V1: &'static [u8; 8] = b"CHRONCAT";

    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        put_uvarint(&mut body, u64::from(self.next_rel_id));
        put_uvarint(&mut body, self.entries.len() as u64);
        for (name, e) in &self.entries {
            put_bytes(&mut body, name.as_bytes());
            put_uvarint(&mut body, u64::from(e.rel_id));
            body.push(match e.class {
                RelationClass::Static => 0,
                RelationClass::StaticRollback => 1,
                RelationClass::Historical => 2,
                RelationClass::Temporal => 3,
            });
            body.push(match e.signature {
                TemporalSignature::Interval => 0,
                TemporalSignature::Event => 1,
            });
            put_uvarint(&mut body, e.schema.arity() as u64);
            for a in e.schema.attributes() {
                put_bytes(&mut body, a.name().as_bytes());
                body.push(match a.attr_type() {
                    AttrType::Str => 0,
                    AttrType::Int => 1,
                    AttrType::Float => 2,
                    AttrType::Bool => 3,
                    AttrType::Date => 4,
                });
            }
        }
        let mut out = Vec::with_capacity(body.len() + 12);
        out.extend_from_slice(Self::MAGIC);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    fn decode(bytes: &[u8]) -> StorageResult<Catalog> {
        if bytes.len() < 12 || (&bytes[..8] != Self::MAGIC && &bytes[..8] != Self::MAGIC_V1) {
            return Err(StorageError::Corrupt("bad catalog magic".into()));
        }
        let stored = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        let body = &bytes[12..];
        let computed = crc32(body);
        if stored != computed {
            return Err(StorageError::ChecksumMismatch {
                expected: stored,
                computed,
            });
        }
        let mut r = Reader::new(body);
        let next_rel_id = r.get_uvarint()?;
        let next_rel_id = u32::try_from(next_rel_id).map_err(|_| {
            StorageError::Corrupt(format!("next_rel_id {next_rel_id} does not fit in a u32"))
        })?;
        let n = r.get_uvarint()? as usize;
        let mut entries = BTreeMap::new();
        let mut ids = HashSet::new();
        for _ in 0..n {
            let name = r.get_str()?.to_string();
            // An id that does not fit in a u32 is not below it either.
            let rel_id = r.get_uvarint()?;
            let rel_id = (u32::try_from(rel_id).ok())
                .filter(|&id| id < next_rel_id)
                .ok_or_else(|| {
                    StorageError::Corrupt(format!(
                        "relation {name:?}: rel_id {rel_id} is not below next_rel_id {next_rel_id}"
                    ))
                })?;
            if !ids.insert(rel_id) {
                return Err(StorageError::Corrupt(format!(
                    "relation {name:?}: rel_id {rel_id} is another relation's too"
                )));
            }
            let class = match r.get_u8()? {
                0 => RelationClass::Static,
                1 => RelationClass::StaticRollback,
                2 => RelationClass::Historical,
                3 => RelationClass::Temporal,
                t => return Err(StorageError::Corrupt(format!("bad class tag {t}"))),
            };
            let signature = match r.get_u8()? {
                0 => TemporalSignature::Interval,
                1 => TemporalSignature::Event,
                t => return Err(StorageError::Corrupt(format!("bad signature tag {t}"))),
            };
            let arity = r.get_uvarint()?;
            // Untrusted: an attribute takes at least two bytes.
            let mut attrs = Vec::with_capacity((arity as usize).min(r.remaining() / 2));
            for _ in 0..arity {
                let aname = r.get_str()?.to_string();
                let ty = match r.get_u8()? {
                    0 => AttrType::Str,
                    1 => AttrType::Int,
                    2 => AttrType::Float,
                    3 => AttrType::Bool,
                    4 => AttrType::Date,
                    t => return Err(StorageError::Corrupt(format!("bad type tag {t}"))),
                };
                attrs.push(Attribute::new(aname, ty));
            }
            let schema = Schema::new(attrs)
                .map_err(|e| StorageError::Corrupt(format!("bad schema: {e}")))?;
            entries.insert(
                name,
                CatalogEntry {
                    rel_id,
                    schema,
                    class,
                    signature,
                },
            );
        }
        Ok(Catalog {
            entries,
            next_rel_id,
        })
    }

    /// Writes the catalog image to `path` atomically and durably
    /// (through the checkpoint's `replace_file` on `disk`), so a
    /// relation whose commits are fsynced in the log keeps its entry
    /// through a power loss.
    pub fn save(&self, disk: &Disk, path: &Path) -> StorageResult<()> {
        crate::checkpoint::replace_file(disk, path, &self.encode())?;
        Ok(())
    }

    /// Loads a catalog image, or an empty catalog if the file is absent.
    /// Read-only: either magic loads.
    pub fn load(path: &Path) -> StorageResult<Catalog> {
        Ok(Self::read(path)?.0)
    }

    /// [`load`](Self::load) for an open that goes on to write: a
    /// `CHRONCAT` catalog is first saved again under this build's magic,
    /// through `disk`.
    pub fn load_for_writing(disk: &Disk, path: &Path) -> StorageResult<Catalog> {
        let (catalog, older) = Self::read(path)?;
        if older {
            catalog.save(disk, path)?;
        }
        Ok(catalog)
    }

    /// The catalog at `path` (empty if the file is absent), and whether
    /// it carries the older magic.
    fn read(path: &Path) -> StorageResult<(Catalog, bool)> {
        match std::fs::read(path) {
            Ok(bytes) => Ok((Self::decode(&bytes)?, bytes.starts_with(Self::MAGIC_V1))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok((Catalog::new(), false)),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_core::schema::faculty_schema;

    fn sample() -> Catalog {
        let mut c = Catalog::new();
        c.define(
            "faculty",
            faculty_schema(),
            RelationClass::Temporal,
            TemporalSignature::Interval,
        )
        .unwrap();
        c.define(
            "promotion",
            Schema::new(vec![
                Attribute::new("name", AttrType::Str),
                Attribute::new("effective", AttrType::Date),
            ])
            .unwrap(),
            RelationClass::Temporal,
            TemporalSignature::Event,
        )
        .unwrap();
        c
    }

    #[test]
    fn define_and_lookup() {
        let c = sample();
        assert_eq!(c.len(), 2);
        let f = c.get("faculty").unwrap();
        assert_eq!(f.rel_id, 0);
        assert_eq!(f.class, RelationClass::Temporal);
        assert!(c.get("absent").is_none());
    }

    #[test]
    fn duplicate_names_rejected_and_ids_never_reused() {
        let mut c = sample();
        assert!(c
            .define(
                "faculty",
                faculty_schema(),
                RelationClass::Static,
                TemporalSignature::Interval
            )
            .is_err());
        c.remove("faculty").unwrap();
        let id = c
            .define(
                "faculty",
                faculty_schema(),
                RelationClass::Static,
                TemporalSignature::Interval,
            )
            .unwrap();
        assert_eq!(id, 2, "rel ids are never reused");
    }

    #[test]
    fn round_trips_through_disk() {
        let c = sample();
        let dir = std::env::temp_dir().join(format!("chronos-catalog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog");
        c.save(&Disk::default(), &path).unwrap();
        // A second save replaces the first through the same temp file.
        c.save(&Disk::default(), &path).unwrap();
        let loaded = Catalog::load(&path).unwrap();
        assert_eq!(loaded, c);
        assert!(
            !dir.join("catalog.tmp").exists(),
            "the save left its temp file behind"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A catalog an older build wrote (`CHRONCAT`) loads read-only as
    /// it is, and an open that writes saves it under the new magic
    /// first.
    #[test]
    fn an_open_rewrites_a_format_1_catalog_under_the_new_magic() {
        let c = sample();
        let dir = std::env::temp_dir().join(format!("chronos-catalog-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog");
        let mut v1 = c.encode();
        assert_eq!(&v1[..8], Catalog::MAGIC);
        v1[..8].copy_from_slice(Catalog::MAGIC_V1);
        std::fs::write(&path, &v1).unwrap();
        assert_eq!(Catalog::load(&path).unwrap(), c);
        assert_eq!(std::fs::read(&path).unwrap(), v1, "load never writes");
        assert_eq!(
            Catalog::load_for_writing(&Disk::default(), &path).unwrap(),
            c
        );
        assert_eq!(std::fs::read(&path).unwrap(), c.encode());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_empty_catalog() {
        let mut path = std::env::temp_dir();
        path.push("chronos-catalog-definitely-missing");
        assert!(Catalog::load(&path).unwrap().is_empty());
    }

    /// A catalog image with a valid checksum around `body`.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = Catalog::MAGIC.to_vec();
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    /// An id is a u32: one that does not fit, one another entry holds,
    /// or one not below `next_rel_id` would alias another relation's
    /// log frames and image, so the catalog is refused naming it.
    #[test]
    fn a_catalog_with_a_bad_rel_id_is_refused_naming_the_entry() {
        let body = |next: u64, ids: [u64; 2]| {
            let mut body = Vec::new();
            put_uvarint(&mut body, next);
            put_uvarint(&mut body, 2);
            for (name, id) in [("faculty", ids[0]), ("promotion", ids[1])] {
                put_bytes(&mut body, name.as_bytes());
                put_uvarint(&mut body, id);
                body.extend_from_slice(&[3, 0, 1]);
                put_bytes(&mut body, b"name");
                body.push(0);
            }
            framed(&body)
        };
        assert_eq!(Catalog::decode(&body(2, [0, 1])).unwrap().len(), 2);
        for (next, ids, named) in [
            (2, [0, 1 << 32], "\"promotion\": rel_id 4294967296"),
            (2, [(1 << 32) + 1, 0], "\"faculty\": rel_id 4294967297"),
            (1 << 32, [0, 1], "next_rel_id 4294967296"),
            (2, [1, 1], "\"promotion\": rel_id 1 is another"),
            (
                2,
                [0, 2],
                "\"promotion\": rel_id 2 is not below next_rel_id 2",
            ),
        ] {
            let err = Catalog::decode(&body(next, ids)).unwrap_err();
            assert!(
                matches!(&err, StorageError::Corrupt(m) if m.contains(named)),
                "{next} {ids:?}: {err}"
            );
        }
    }

    #[test]
    fn corruption_detected() {
        let c = sample();
        let mut bytes = c.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(Catalog::decode(&bytes).is_err());
        assert!(Catalog::decode(b"NOTMAGIC0000").is_err());
    }
}
