//! CPU affinity of the benchmark process, through the C library's
//! `sched_getaffinity`/`sched_setaffinity` (pure std has no wrapper).

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
#[derive(Clone, Copy)]
pub struct CpuMask([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const SIZE: usize = std::mem::size_of::<CpuMask>();

impl CpuMask {
    /// The calling thread's mask.
    pub fn current() -> Result<CpuMask, String> {
        let mut mask = CpuMask([0; 16]);
        // SAFETY: `mask.0` is a writable buffer of exactly `SIZE` bytes,
        // and pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, SIZE, mask.0.as_mut_ptr()) } != 0 {
            return Err(std::io::Error::last_os_error().to_string());
        }
        Ok(mask)
    }

    /// Applies the mask to the calling thread; threads it spawns later
    /// inherit it.
    pub fn apply(&self) -> Result<(), String> {
        // SAFETY: `self.0` is a readable buffer of exactly `SIZE` bytes,
        // and pid 0 names the calling thread.
        if unsafe { sched_setaffinity(0, SIZE, self.0.as_ptr()) } != 0 {
            return Err(std::io::Error::last_os_error().to_string());
        }
        Ok(())
    }

    /// The highest-numbered CPU in the mask, alone.
    pub fn last_cpu(&self) -> Option<(usize, CpuMask)> {
        let cpu = (0..SIZE * 8)
            .rev()
            .find(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = CpuMask([0; 16]);
        one.0[cpu / 64] = 1 << (cpu % 64);
        Some((cpu, one))
    }
}
