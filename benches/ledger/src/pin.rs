//! Holding a closed request/reply loop on one CPU.
//!
//! `serve-jobs` has one job in flight at a time, handed from the client
//! thread to the server's connection thread to an engine worker and
//! back. Left to the scheduler, each hand-off wakes a thread on whichever
//! of this VM's shared cores idles, and a wake-up across cores goes
//! through the hypervisor: the same binary read 4800 ops/s in one run
//! and 2800 in the next, by where the threads happened to land. On one
//! CPU a hand-off is a plain context switch, the round trip measures the
//! program's own work, and ten runs agree within 6–8 %. No parallelism is
//! lost, because the loop never has two things to do at once.

/// `cpu_set_t`: 1024 CPUs, as glibc lays it out.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The calling thread's allowed CPUs, or `None` where that cannot be read.
fn allowed() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    #[cfg(target_os = "linux")]
    // SAFETY: `set` is a writable cpu_set_t of the size passed; pid 0 is
    // the calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } == 0;
    #[cfg(not(target_os = "linux"))]
    let ok = false;
    ok.then_some(set)
}

fn allow(set: &CpuSet) -> bool {
    #[cfg(target_os = "linux")]
    // SAFETY: `set` is a readable cpu_set_t of the size passed.
    return unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) } == 0;
    #[cfg(not(target_os = "linux"))]
    return false;
}

/// The set holding only the lowest CPU of `set`, and that CPU's number.
fn lowest(set: &CpuSet) -> Option<(CpuSet, usize)> {
    let word = set.iter().position(|&w| w != 0)?;
    let bit = set[word].trailing_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    Some((one, word * 64 + bit))
}

/// While this lives, the calling thread and every thread started after
/// `pin` (they inherit the mask) run on one CPU: the lowest the process
/// is allowed. Dropping it gives the calling thread its CPUs back;
/// threads started meanwhile keep theirs, so stop them first.
pub struct OneCpu {
    before: CpuSet,
    pub cpu: usize,
}

impl OneCpu {
    /// `None` where the platform or a sandbox does not let the
    /// benchmark choose: the run goes on unpinned.
    pub fn pin() -> Option<OneCpu> {
        let before = allowed()?;
        let (one, cpu) = lowest(&before)?;
        allow(&one).then_some(OneCpu { before, cpu })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        allow(&self.before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_lowest_allowed_cpu_is_chosen() {
        let mut set: CpuSet = [0; 16];
        assert_eq!(lowest(&set), None);
        set[1] = 0b1100;
        set[3] = 1;
        let (one, cpu) = lowest(&set).unwrap();
        assert_eq!(cpu, 66);
        assert_eq!(one[1], 0b0100);
        assert_eq!(one.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_pin_narrows_to_one_cpu_for_new_threads_too_and_a_drop_restores() {
        // On its own thread, so the other tests keep their CPUs.
        std::thread::spawn(|| {
            let before = allowed().expect("affinity is readable on linux");
            let pin = OneCpu::pin().expect("a process may narrow its own mask");
            let cpus = |set: CpuSet| set.iter().map(|w| w.count_ones()).sum::<u32>();
            assert_eq!(cpus(allowed().unwrap()), 1);
            assert_eq!(lowest(&allowed().unwrap()).unwrap().1, pin.cpu);
            let child = std::thread::spawn(allowed).join().unwrap().unwrap();
            assert_eq!(cpus(child), 1, "threads started under a pin inherit it");
            drop(pin);
            assert_eq!(allowed().unwrap(), before);
        })
        .join()
        .unwrap();
    }
}
