//! CPU placement. The engine's threads hand a few hundred bytes to each
//! other per transaction, and on two shared vCPUs what such a hand-off
//! costs is the host's to decide — how far apart the two vCPUs sit, how
//! long a halted one takes to wake — so a pass left to the scheduler
//! measures the host (README, "Placement"). Each system under test
//! therefore runs on **one CPU**; a load generator runs beside it, or, for
//! the open loop, on a second CPU.
//!
//! A thread inherits the affinity of the thread that spawns it, so pinning
//! the caller before it starts a system pins that whole system.

use std::sync::OnceLock;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask: room for 1024 CPUs, what glibc's `cpu_set_t` holds.
const WORDS: usize = 16;

/// The CPUs the calling thread may run on, lowest first.
fn allowed() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

fn pin_to(cpu: usize) -> bool {
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of the size passed; pid 0 names the
    // calling thread.
    unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// `(system, load)`: the highest and the lowest CPU this process was given,
/// read once, before anything is pinned. The same CPU when there is one.
pub fn cpus() -> Option<(usize, usize)> {
    static CPUS: OnceLock<Option<(usize, usize)>> = OnceLock::new();
    *CPUS.get_or_init(|| {
        let allowed = allowed();
        Some((*allowed.last()?, *allowed.first()?))
    })
}

/// Confine the calling thread, and every thread it spawns from now on, to
/// the CPU of the system under test. A kernel that refuses leaves the
/// thread where it was; the pass still runs.
pub fn system() {
    if let Some((system, _)) = cpus() {
        pin_to(system);
    }
}

/// Confine the calling thread, and every thread it spawns from now on, to
/// the load generator's CPU.
pub fn load() {
    if let Some((_, load)) = cpus() {
        pin_to(load);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_confines_the_caller_and_the_threads_it_spawns() {
        // On a thread of its own, so the test harness's thread stays free.
        std::thread::spawn(|| {
            let (system_cpu, load_cpu) = cpus().expect("the affinity mask can be read");
            system();
            let inherited = std::thread::spawn(allowed).join().unwrap();
            assert_eq!(inherited, [system_cpu]);
            load();
            assert_eq!(allowed(), [load_cpu]);
        })
        .join()
        .unwrap();
    }
}
