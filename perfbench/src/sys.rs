//! Process and machine facts: peak memory, bytes written, CPU model,
//! the counting allocator, and the source revision.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The benchmark's global allocator: tracks the live bytes of large
/// allocations and their peak, and counts allocation calls while
/// [`count_allocations`] is on.
///
/// The live-byte peak is what the program asks of the heap: traffic
/// matrices, snapshots, buffers. Resident memory (`VmHWM`) adds whatever
/// the C allocator keeps mapped after frees, which varies from run to
/// run on the same input. Allocations below [`LARGE`] bytes are not
/// tracked, which keeps shared atomics off the hot path of small
/// allocations (query answers, strings).
pub struct CountingAlloc;

/// Smallest allocation whose bytes count toward the live-heap peak.
pub const LARGE: usize = 4096;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    if bytes >= LARGE {
        let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        if live > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if bytes >= LARGE {
        LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System` upholds the `GlobalAlloc` contract;
// the added bookkeeping is relaxed atomics on statistics that publish
// no other data, which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller's guarantees on
        // `layout` carry over.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from `System` via this allocator;
        // the caller guarantees `new_size` is valid for `layout`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        new
    }
}

/// Turns allocation counting on or off.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Restarts the live-heap peak from the bytes live now.
pub fn reset_peak_heap() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap in large allocations since the last
/// [`reset_peak_heap`], in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

fn status_field_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field_kb("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Bytes this process has passed to `write`-family calls (`wchar`).
pub fn wchar() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|l| l.strip_prefix("wchar:").and_then(|v| v.trim().parse().ok()))
        })
        .unwrap_or(0)
}

/// A CPU mask the size of the C library's `cpu_set_t` (1,024 CPUs).
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on; empty where the mask cannot
/// be read.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpu`; `false` if that failed.
pub fn pin_to_cpu(cpu: usize) -> bool {
    let mut mask: CpuSet = [0; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0 }
}

/// Worker threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The git revision of the working directory, or `unknown` outside a
/// git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
