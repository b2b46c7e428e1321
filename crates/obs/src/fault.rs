//! The durable-file handle: every write a database makes to its
//! directory goes through one [`Disk`], and so does the fault plan a
//! test gives it.
//!
//! A [`Disk`] performs eight kinds of operation ([`OpKind`]): create,
//! append, write, write-at, sync, rename, sync-dir and truncate.  The
//! WAL, the checkpoint and catalog replacement, the event journal and
//! the telemetry spill use nothing else to change a file.  Reads go to
//! the file system directly: a power cut can lose writes, not reads.
//!
//! The default handle is plain: each call is the system call and one
//! branch.  [`Disk::recording`] makes a handle that also records every
//! operation it performs ([`Disk::ops`]), in the order the file system
//! saw them, so a checker can replay the log into the disk states a
//! power cut may leave.  [`Disk::inject`] arms a [`Fault`] on such a
//! handle: fail the *n*-th operation of one kind on one file, once,
//! from then on, or as a crash, after which the handle fails every call
//! and changes nothing.  The plan belongs to the handle, and the handle
//! to one database: no two databases share one.
//!
//! The same plan can fail an in-memory step of a commit
//! ([`Disk::unwind_point`]): nothing on disk, but the error paths of an
//! apply need a way in too.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The kinds of operation a [`Disk`] performs, plus the in-memory
/// [`Unwind`](OpKind::Unwind) points a fault may name.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum OpKind {
    /// Opens a file for appending, creating it empty if absent.
    Create,
    /// Appends bytes to an open file.
    Append,
    /// Replaces a file's content (created if absent).
    Write,
    /// Writes bytes at an offset of an open file, growing it if they
    /// reach past its end.
    WriteAt,
    /// Flushes a file's data to stable storage.
    Sync,
    /// Renames a file (the fault key is the destination).
    Rename,
    /// Flushes a directory's entries to stable storage.
    SyncDir,
    /// Cuts a file to a length.
    Truncate,
    /// An in-memory step of a commit (the fault key is its name).
    Unwind,
}

/// One operation a recording [`Disk`] performed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Create(PathBuf),
    Append(PathBuf, Vec<u8>),
    Write(PathBuf, Vec<u8>),
    WriteAt(PathBuf, u64, Vec<u8>),
    Sync(PathBuf),
    Rename(PathBuf, PathBuf),
    SyncDir(PathBuf),
    Truncate(PathBuf, u64),
}

impl Op {
    /// The operation's kind.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Create(_) => OpKind::Create,
            Op::Append(..) => OpKind::Append,
            Op::Write(..) => OpKind::Write,
            Op::WriteAt(..) => OpKind::WriteAt,
            Op::Sync(_) => OpKind::Sync,
            Op::Rename(..) => OpKind::Rename,
            Op::SyncDir(_) => OpKind::SyncDir,
            Op::Truncate(..) => OpKind::Truncate,
        }
    }

    /// The path a fault names the operation by: a rename's destination,
    /// every other operation's one path.
    pub fn path(&self) -> &Path {
        match self {
            Op::Create(p)
            | Op::Append(p, _)
            | Op::Write(p, _)
            | Op::WriteAt(p, ..)
            | Op::Sync(p)
            | Op::SyncDir(p)
            | Op::Truncate(p, _)
            | Op::Rename(_, p) => p,
        }
    }
}

/// The last component of `path`: the name a fault matches.
pub fn file_name(path: &Path) -> &str {
    path.file_name().and_then(|n| n.to_str()).unwrap_or("")
}

/// What a fault does once its operation comes round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Effect {
    /// Fail that one operation.
    Once,
    /// Fail it and every later one of its kind on its file.
    Lasting,
    /// Fail it and every later call of any kind: the process is gone.
    Crash,
}

/// Fail the `nth` (1-based, counted from [`Disk::inject`]) operation of
/// `kind` on the file named `file`.
#[derive(Clone, Debug)]
pub struct Fault {
    kind: OpKind,
    file: String,
    nth: u64,
    effect: Effect,
    seen: u64,
}

impl Fault {
    fn new(kind: OpKind, file: &str, nth: u64, effect: Effect) -> Fault {
        Fault {
            kind,
            file: file.to_string(),
            nth,
            effect,
            seen: 0,
        }
    }

    /// Fails that one operation with an injected error.
    pub fn error(kind: OpKind, file: &str, nth: u64) -> Fault {
        Fault::new(kind, file, nth, Effect::Once)
    }

    /// Fails that operation and every later one of its kind on its file,
    /// as a full disk would.
    pub fn lasting(kind: OpKind, file: &str, nth: u64) -> Fault {
        Fault::new(kind, file, nth, Effect::Lasting)
    }

    /// Crashes at that operation: it and every later call fail, and
    /// none of them changes anything.
    pub fn crash(kind: OpKind, file: &str, nth: u64) -> Fault {
        Fault::new(kind, file, nth, Effect::Crash)
    }
}

#[derive(Default)]
struct Plan {
    faults: Vec<Fault>,
    crashed: bool,
    ops: Vec<Op>,
}

impl Plan {
    /// Counts the operation against every armed fault; an error when
    /// one fires or the disk has crashed.
    fn admit(&mut self, kind: OpKind, name: &str) -> io::Result<()> {
        if self.crashed {
            return Err(io::Error::other(format!(
                "injected crash: {kind:?} on {name} after the disk went away"
            )));
        }
        let mut fired = None;
        for f in self.faults.iter_mut() {
            if f.kind == kind && f.file == name {
                f.seen += 1;
                if f.seen == f.nth || (f.effect == Effect::Lasting && f.seen > f.nth) {
                    fired = Some(f.effect);
                }
            }
        }
        match fired {
            None => Ok(()),
            Some(effect) => {
                self.crashed = effect == Effect::Crash;
                Err(io::Error::other(format!(
                    "injected fault: {kind:?} on {name}"
                )))
            }
        }
    }
}

/// A database's handle on its directory (see the module docs).  Clones
/// share one plan.
#[derive(Clone, Default)]
pub struct Disk {
    plan: Option<Arc<Mutex<Plan>>>,
}

impl Disk {
    /// A handle that records every operation and accepts faults.
    pub fn recording() -> Disk {
        Disk {
            plan: Some(Arc::default()),
        }
    }

    fn plan(&self) -> Option<MutexGuard<'_, Plan>> {
        let plan = self.plan.as_ref()?;
        Some(plan.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Arms `fault`; its count starts now.
    ///
    /// # Panics
    ///
    /// On a plain handle, which carries no plan.
    pub fn inject(&self, fault: Fault) {
        self.plan()
            .expect("faults need a recording disk")
            .faults
            .push(fault);
    }

    /// The operations performed so far, in order (none on a plain
    /// handle).
    pub fn ops(&self) -> Vec<Op> {
        self.plan().map_or_else(Vec::new, |p| p.ops.clone())
    }

    /// How many operations have been performed so far.
    pub fn op_count(&self) -> usize {
        self.plan().map_or(0, |p| p.ops.len())
    }

    /// Runs `act` as one operation: admitted by the plan, then
    /// performed, then recorded — all under the plan's lock, so the
    /// record is the order the file system saw.
    fn run<T>(
        &self,
        kind: OpKind,
        path: &Path,
        record: impl FnOnce() -> Op,
        act: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        let Some(mut plan) = self.plan() else {
            return act();
        };
        plan.admit(kind, file_name(path))?;
        let out = act()?;
        plan.ops.push(record());
        Ok(out)
    }

    /// An in-memory step named `site` that a fault may fail.
    pub fn unwind_point(&self, site: &str) -> io::Result<()> {
        match self.plan() {
            Some(mut plan) => plan.admit(OpKind::Unwind, site),
            None => Ok(()),
        }
    }

    /// Opens `path` for [`DiskFile::append`], creating it empty if
    /// absent.
    pub fn open_append(&self, path: &Path) -> io::Result<DiskFile> {
        self.open_with(path, OpenOptions::new().append(true))
    }

    /// Opens `path` for [`DiskFile::write_at`], creating it empty if
    /// absent.
    pub fn open(&self, path: &Path) -> io::Result<DiskFile> {
        self.open_with(path, OpenOptions::new().write(true))
    }

    fn open_with(&self, path: &Path, options: &mut OpenOptions) -> io::Result<DiskFile> {
        let file = self.run(
            OpKind::Create,
            path,
            || Op::Create(path.to_path_buf()),
            || options.create(true).open(path),
        )?;
        Ok(DiskFile {
            file,
            path: path.to_path_buf(),
            disk: self.clone(),
        })
    }

    /// Replaces the content of `path` with `bytes` (no sync).
    pub fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.run(
            OpKind::Write,
            path,
            || Op::Write(path.to_path_buf(), bytes.to_vec()),
            || File::create(path)?.write_all(bytes),
        )
    }

    /// Flushes the file at `path` to stable storage.
    pub fn sync(&self, path: &Path) -> io::Result<()> {
        self.run(
            OpKind::Sync,
            path,
            || Op::Sync(path.to_path_buf()),
            || File::open(path)?.sync_all(),
        )
    }

    /// Renames `from` to `to`, replacing `to`.
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.run(
            OpKind::Rename,
            to,
            || Op::Rename(from.to_path_buf(), to.to_path_buf()),
            || std::fs::rename(from, to),
        )
    }

    /// Flushes the entries of directory `dir` (creations and renames)
    /// to stable storage.
    pub fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.run(
            OpKind::SyncDir,
            dir,
            || Op::SyncDir(dir.to_path_buf()),
            || File::open(dir)?.sync_all(),
        )
    }
}

/// A file a [`Disk`] opened; its writes go through the same handle.
pub struct DiskFile {
    file: File,
    path: PathBuf,
    disk: Disk,
}

impl DiskFile {
    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The file's length on the file system.
    pub fn size(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// Appends `bytes` (no sync) to a file from [`Disk::open_append`].
    pub fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let file = &mut self.file;
        self.disk.run(
            OpKind::Append,
            &self.path,
            || Op::Append(self.path.clone(), bytes.to_vec()),
            || file.write_all(bytes),
        )
    }

    /// Writes `bytes` at `offset` (no sync) of a file from
    /// [`Disk::open`]; the file grows if they reach past its end.
    pub fn write_at(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        let file = &self.file;
        self.disk.run(
            OpKind::WriteAt,
            &self.path,
            || Op::WriteAt(self.path.clone(), offset, bytes.to_vec()),
            || file.write_all_at(bytes, offset),
        )
    }

    /// Flushes the file's data to stable storage.
    pub fn sync(&self) -> io::Result<()> {
        self.disk.run(
            OpKind::Sync,
            &self.path,
            || Op::Sync(self.path.clone()),
            || self.file.sync_data(),
        )
    }

    /// Cuts the file to `len` bytes (no sync).
    pub fn truncate(&mut self, len: u64) -> io::Result<()> {
        let file = &self.file;
        self.disk.run(
            OpKind::Truncate,
            &self.path,
            || Op::Truncate(self.path.clone(), len),
            || file.set_len(len),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("chronos-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn disarmed_sites_pass_through() {
        let dir = scratch("plain");
        let disk = Disk::default();
        let mut f = disk.open_append(&dir.join("log")).unwrap();
        f.append(b"abc").unwrap();
        f.sync().unwrap();
        disk.unwind_point("heap.insert").unwrap();
        assert_eq!(std::fs::read(dir.join("log")).unwrap(), b"abc");
        assert!(disk.ops().is_empty(), "a plain handle records nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_plan_fires_on_exact_hit_only() {
        let dir = scratch("error");
        let disk = Disk::recording();
        let mut f = disk.open_append(&dir.join("log")).unwrap();
        disk.inject(Fault::error(OpKind::Append, "log", 2));
        f.append(b"a").unwrap();
        let err = f.append(b"b").unwrap_err();
        assert_eq!(err.to_string(), "injected fault: Append on log");
        // Later hits, other kinds and other files are untouched.
        f.append(b"c").unwrap();
        f.sync().unwrap();
        disk.open_append(&dir.join("other"))
            .unwrap()
            .append(b"x")
            .unwrap();
        assert_eq!(std::fs::read(dir.join("log")).unwrap(), b"ac");
        let path = dir.join("log");
        assert_eq!(
            disk.ops()[..4],
            [
                Op::Create(path.clone()),
                Op::Append(path.clone(), b"a".to_vec()),
                Op::Append(path.clone(), b"c".to_vec()),
                Op::Sync(path),
            ],
            "the failed append is not recorded"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_positional_write_lands_in_place_and_is_recorded() {
        let dir = scratch("write-at");
        let path = dir.join("log");
        let disk = Disk::recording();
        let mut f = disk.open(&path).unwrap();
        f.write_at(0, b"abc\0\0\0").unwrap();
        f.write_at(3, b"de").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"abcde\0");
        disk.inject(Fault::error(OpKind::WriteAt, "log", 1));
        assert!(f.write_at(5, b"f").is_err());
        assert_eq!(
            disk.ops(),
            [
                Op::Create(path.clone()),
                Op::WriteAt(path.clone(), 0, b"abc\0\0\0".to_vec()),
                Op::WriteAt(path, 3, b"de".to_vec()),
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reinstall_resets_hit_counters() {
        let disk = Disk::recording();
        disk.inject(Fault::error(OpKind::Unwind, "heap.insert", 1));
        assert!(disk.unwind_point("heap.insert").is_err());
        assert!(disk.unwind_point("heap.insert").is_ok());
        // A fault armed later counts from its own arming.
        disk.inject(Fault::error(OpKind::Unwind, "heap.insert", 2));
        assert!(disk.unwind_point("heap.insert").is_ok());
        assert!(disk.unwind_point("heap.insert").is_err());
        assert!(disk.unwind_point("heap.insert").is_ok());
    }

    #[test]
    fn a_lasting_fault_fails_every_later_hit_and_a_crash_every_call() {
        let dir = scratch("crash");
        let disk = Disk::recording();
        disk.inject(Fault::lasting(OpKind::Write, "a.tmp", 2));
        disk.write(&dir.join("a.tmp"), b"1").unwrap();
        assert!(disk.write(&dir.join("a.tmp"), b"2").is_err());
        assert!(disk.write(&dir.join("a.tmp"), b"3").is_err());
        disk.write(&dir.join("b.tmp"), b"1").unwrap();
        disk.inject(Fault::crash(OpKind::Rename, "b", 1));
        assert!(disk.rename(&dir.join("b.tmp"), &dir.join("b")).is_err());
        assert!(
            disk.sync_dir(&dir).is_err(),
            "a crashed disk fails every call"
        );
        assert!(disk.unwind_point("heap.insert").is_err());
        assert!(dir.join("b.tmp").exists(), "and changes nothing");
        assert_eq!(disk.op_count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
