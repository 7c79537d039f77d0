//! Readings the benchmark takes from outside the program: process and
//! thread CPU time, and the process's peak resident set.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_MMAP_THRESHOLD` (`<malloc.h>`) and its initial value.
const M_MMAP_THRESHOLD: i32 = -3;
const INITIAL_MMAP_THRESHOLD: i32 = 128 * 1024;

/// Hold glibc's mmap threshold at its initial 128 KiB. By default glibc
/// raises the threshold to the size of each large block the program
/// frees, so after the first study frees its input, blocks up to that
/// size come from the arenas, which keep their memory, and the peak
/// resident set of later studies crept up with the run's history.
/// Returns false if glibc refused.
pub fn fix_mmap_threshold() -> bool {
    // SAFETY: `mallopt` takes two integers and only changes the
    // allocator's configuration.
    unsafe { mallopt(M_MMAP_THRESHOLD, INITIAL_MMAP_THRESHOLD) == 1 }
}

/// Linux clock ids (`<linux/time.h>`).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // both clock ids are fixed Linux constants that need no other setup.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU nanoseconds consumed by every thread of the process so far,
/// threads that have already exited included.
pub fn process_cpu_ns() -> u64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU nanoseconds consumed by the calling thread so far.
pub fn thread_cpu_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// Return the heap's free memory to the system, then reset the
/// process's peak resident set (`VmHWM`) to its current resident set, so
/// the next [`peak_rss_bytes`] covers only what runs after, and not what
/// earlier work left cached in the allocator's arenas.
pub fn reset_peak_rss() -> std::io::Result<()> {
    // SAFETY: glibc's `malloc_trim` takes a byte count and only releases
    // free pages of the allocator's own arenas; any thread may call it.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set of the process since it started or since the last
/// [`reset_peak_rss`] (`VmHWM`), bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > t0);
        assert!(process_cpu_ns() >= p0 + (thread_cpu_ns() - t0) / 2);
        assert!(peak_rss_bytes().expect("Linux /proc") > 0);
    }
}
