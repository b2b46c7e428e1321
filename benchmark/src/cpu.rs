//! One CPU for everything that is measured.
//!
//! A statement on one closed-loop connection is a relay: client thread,
//! session thread, group-commit thread and back, one running at a time.
//! Left to the scheduler, the runners sit on one CPU for a while and on
//! two for a while.  On two, every hand-over wakes a halted virtual CPU
//! — an interrupt and an exit to the hypervisor — and a cached lookup
//! takes 150 µs, not 120; which it is changes from window to window, and
//! ten identical runs of `point_read` spread by 13 %.  Confined to one
//! CPU there is one arrangement.  The confinement is inherited: by the
//! server the benchmark then spawns, and by every thread of either.

extern "C" {
    /// `sched_getaffinity(2)`: fills `mask` with the CPUs thread `pid`
    /// may run on.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    /// `sched_setaffinity(2)`: confines thread `pid` to the CPUs in `mask`.
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU set as the kernel takes it: 1 024 bits.
type CpuMask = [u64; 16];

/// The CPUs the calling thread may run on, ascending (empty if the
/// kernel will not say).
fn allowed() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of the size passed; pid 0
    // names the calling thread; the call keeps no pointer.
    if unsafe { sched_getaffinity(0, size_of::<CpuMask>(), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Confines the calling thread, and what it spawns from now on, to the
/// last CPU it may run on (the first is where the sandbox delivers its
/// disk and network interrupts).  Returns that CPU, or `None` — with the
/// thread left as it was — if the kernel refuses.
pub fn confine_to_one() -> Option<usize> {
    let cpu = *allowed().last()?;
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of the size passed; pid 0 names the
    // calling thread; the call keeps no pointer.
    (unsafe { sched_setaffinity(0, size_of::<CpuMask>(), mask.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_confined_thread_and_its_children_have_one_cpu() {
        std::thread::spawn(|| {
            let before = allowed();
            let cpu = confine_to_one().expect("a thread may always narrow its own mask");
            assert_eq!(Some(&cpu), before.last());
            assert_eq!(allowed(), [cpu]);
            let child = std::thread::spawn(allowed).join().expect("child thread");
            assert_eq!(child, [cpu], "spawned threads inherit the mask");
        })
        .join()
        .expect("confined thread");
    }
}
