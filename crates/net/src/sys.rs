//! Raw Linux syscall shims for the handful of calls the reactor needs —
//! `epoll_create1`, `epoll_ctl`, `epoll_wait`/`epoll_pwait`, `eventfd2`,
//! plus `rt_sigaction` for graceful-shutdown signal handling and the
//! `setitimer`/`SIGPROF`/`process_vm_readv` trio behind the sampling CPU
//! profiler — issued directly through the architecture's syscall
//! instruction. The repo builds with no crates.io dependencies, and `std`
//! does not expose epoll, so this module is the entire FFI surface: no
//! `libc` crate, no `extern` bindings, no errno TLS (the raw syscall
//! convention returns `-errno` inline, which maps straight to
//! `io::Error::from_raw_os_error`).
//!
//! Supported targets are `linux` on `x86_64` and `aarch64`; everywhere else
//! the shims compile to stubs returning `Unsupported`, and
//! [`supported`] reports `false`.
//!
//! # The sampling profiler ([`profiler_arm`])
//!
//! `setitimer(ITIMER_PROF, 1/hz)` makes the kernel deliver `SIGPROF` every
//! `1/hz` seconds of *process CPU time* (wall-clock idle does not tick),
//! to whichever thread is running. The handler reads the interrupted
//! context's PC/FP/SP straight out of the kernel `ucontext` at fixed ABI
//! offsets, then walks the frame-pointer chain (`[fp] = caller fp,
//! [fp+8] = return address` on both supported arches — the workspace
//! builds with `force-frame-pointers=yes`, see `.cargo/config.toml`).
//! Every stack read goes through `process_vm_readv` on our own pid: the
//! kernel validates the address and returns `EFAULT` for garbage instead
//! of faulting inside a signal handler. The sample lands in
//! `atpm_obs::profile`'s pre-allocated lock-free buffer; symbolization is
//! entirely offline. Nothing in the handler allocates, locks, or calls
//! into libc.

use std::io;
use std::os::fd::{AsRawFd, BorrowedFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Raised by the handler [`arm_terminate_flag`] installs. Lives outside
/// the arch-gated modules so the public API shape is target-independent.
static TERMINATE: AtomicBool = AtomicBool::new(false);

/// The signal handler itself: one atomic store, the only thing that is
/// async-signal-safe to do here.
extern "C" fn on_terminate_signal(_sig: i32) {
    TERMINATE.store(true, Ordering::Release);
}

/// Current profiler sampling rate; 0 while disarmed. Outside the
/// arch-gated modules so [`profiler_hz`] exists on every target.
static PROFILE_HZ: AtomicU32 = AtomicU32::new(0);

/// The sampling rate [`profiler_arm`] last installed, or 0 when the
/// profiler is off: nonzero exactly while a `/debug/profile` window of
/// the serve layer is open.
pub fn profiler_hz() -> u32 {
    PROFILE_HZ.load(Ordering::Relaxed)
}

/// `EPOLLIN`: the fd is readable (or at EOF).
pub const EPOLLIN: u32 = 0x001;
/// `EPOLLOUT`: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// `EPOLLERR`: error condition; always reported, never requested.
pub const EPOLLERR: u32 = 0x008;
/// `EPOLLHUP`: hangup; always reported, never requested.
pub const EPOLLHUP: u32 = 0x010;
/// `EPOLLEXCLUSIVE`: wake one waiter per event — the anti-thundering-herd
/// flag for a listener registered in several shard pollers. `ADD`-only;
/// an fd registered exclusive must not be modified afterwards.
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;

/// `epoll_ctl` ops.
pub const EPOLL_CTL_ADD: u32 = 1;
/// Remove an fd from the interest list.
pub const EPOLL_CTL_DEL: u32 = 2;
/// Change an existing registration.
pub const EPOLL_CTL_MOD: u32 = 3;

const EPOLL_CLOEXEC: usize = 0x80000;
const EFD_CLOEXEC: usize = 0x80000;
const EFD_NONBLOCK: usize = 0x800;

/// The kernel's `struct epoll_event`. On x86_64 it is packed (a 12-byte
/// struct); on every other architecture it has natural alignment. Always
/// copy events out by value — taking references into a packed struct is UB
/// bait.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy, Default)]
pub struct EpollEvent {
    /// Requested/reported readiness bits (`EPOLL*`).
    pub events: u32,
    /// Opaque per-registration cookie, returned verbatim with each event.
    pub data: u64,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod arch {
    pub const SYS_READ: usize = 0;
    pub const SYS_WRITE: usize = 1;
    pub const SYS_RT_SIGACTION: usize = 13;
    pub const SYS_EPOLL_PWAIT: usize = 281;
    pub const SYS_EPOLL_CTL: usize = 233;
    pub const SYS_EPOLL_CREATE1: usize = 291;
    pub const SYS_EVENTFD2: usize = 290;
    pub const SYS_SETITIMER: usize = 38;
    pub const SYS_PROCESS_VM_READV: usize = 310;
    pub const SYS_GETPID: usize = 39;
    #[cfg(test)]
    pub const SYS_KILL: usize = 62;

    /// PC, FP, SP of the interrupted context, read from the kernel
    /// `ucontext` a `SA_SIGINFO` handler receives as its third argument.
    ///
    /// x86_64 kernel ABI: `struct ucontext` is `uc_flags` (8) + `uc_link`
    /// (8) + `stack_t` (24) = 40 bytes before `uc_mcontext`, whose gpr
    /// array orders `r8 r9 r10 r11 r12 r13 r14 r15 rdi rsi rbp rbx rdx
    /// rax rcx rsp rip` — rbp at index 10, rsp 15, rip 16.
    ///
    /// # Safety
    /// `uctx` must be the ucontext pointer the kernel passed to a running
    /// signal handler.
    pub unsafe fn signal_regs(uctx: *const u8) -> (usize, usize, usize) {
        let gregs = unsafe { uctx.add(40) }.cast::<usize>();
        unsafe {
            (
                gregs.add(16).read(),
                gregs.add(10).read(),
                gregs.add(15).read(),
            )
        }
    }

    /// x86_64 requires userspace to supply the signal-return trampoline
    /// (`SA_RESTORER`); glibc normally hides this. Ours is the canonical
    /// two instructions: load `rt_sigreturn` (15) and trap.
    pub const SA_RESTORER: usize = 0x0400_0000;

    core::arch::global_asm!(
        // `.globl` so the symbol survives codegen-unit partitioning (the
        // reference in `sigaction` can land in a different object file);
        // `.hidden` keeps it out of the dynamic symbol table.
        ".globl __atpm_sigrestorer",
        ".hidden __atpm_sigrestorer",
        "__atpm_sigrestorer:",
        "mov rax, 15",
        "syscall",
    );
    extern "C" {
        pub fn __atpm_sigrestorer();
    }

    /// The kernel's `struct sigaction` on x86_64: handler, flags,
    /// restorer, then a 64-bit mask.
    #[repr(C)]
    pub struct KSigaction {
        pub handler: usize,
        pub flags: usize,
        pub restorer: usize,
        pub mask: u64,
    }

    /// Builds the sigaction installing `handler` with `flags`.
    pub fn sigaction(handler: usize, flags: usize) -> KSigaction {
        KSigaction {
            handler,
            flags: flags | SA_RESTORER,
            restorer: __atpm_sigrestorer as *const () as usize,
            mask: 0,
        }
    }

    /// One instruction, six argument registers: the x86_64 Linux syscall
    /// ABI (`rax` = number, args in `rdi rsi rdx r10 r8 r9`; `rcx`/`r11`
    /// clobbered by the `syscall` instruction itself).
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod arch {
    pub const SYS_READ: usize = 63;
    pub const SYS_WRITE: usize = 64;
    pub const SYS_RT_SIGACTION: usize = 134;
    pub const SYS_EPOLL_PWAIT: usize = 22;
    pub const SYS_EPOLL_CTL: usize = 21;
    pub const SYS_EPOLL_CREATE1: usize = 20;
    pub const SYS_EVENTFD2: usize = 19;
    pub const SYS_SETITIMER: usize = 103;
    pub const SYS_PROCESS_VM_READV: usize = 270;
    pub const SYS_GETPID: usize = 172;
    #[cfg(test)]
    pub const SYS_KILL: usize = 129;

    /// PC, FP, SP of the interrupted context, read from the kernel
    /// `ucontext` a `SA_SIGINFO` handler receives as its third argument.
    ///
    /// aarch64 kernel ABI: `uc_flags` (8) + `uc_link` (8) + `stack_t`
    /// (24) + `sigset_t` (8, padded out to 128) = 168 bytes, then
    /// `uc_mcontext` aligned to 16 at offset 176: `fault_address`,
    /// `regs[31]`, `sp`, `pc` — fp is `regs[29]` (word 30 from the
    /// mcontext base), sp word 32, pc word 33.
    ///
    /// # Safety
    /// `uctx` must be the ucontext pointer the kernel passed to a running
    /// signal handler.
    pub unsafe fn signal_regs(uctx: *const u8) -> (usize, usize, usize) {
        let mctx = unsafe { uctx.add(176) }.cast::<usize>();
        unsafe {
            (
                mctx.add(33).read(),
                mctx.add(30).read(),
                mctx.add(32).read(),
            )
        }
    }

    /// The kernel's `struct sigaction` on aarch64 (asm-generic layout, no
    /// `SA_RESTORER`: the kernel maps its own vDSO trampoline).
    #[repr(C)]
    pub struct KSigaction {
        pub handler: usize,
        pub flags: usize,
        pub mask: u64,
    }

    /// Builds the sigaction installing `handler` with `flags`.
    pub fn sigaction(handler: usize, flags: usize) -> KSigaction {
        KSigaction {
            handler,
            flags,
            mask: 0,
        }
    }

    /// The aarch64 Linux syscall ABI: `x8` = number, args in `x0..x5`.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") n,
                inlateout("x0") a1 => ret,
                in("x1") a2,
                in("x2") a3,
                in("x3") a4,
                in("x4") a5,
                in("x5") a6,
                options(nostack),
            );
        }
        ret
    }
}

/// Whether this build has working epoll shims. `false` means every call in
/// this module returns `Unsupported`.
pub const fn supported() -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::arch::*;
    use super::*;
    use crate::fault::{gate, Site};
    use std::os::fd::{FromRawFd, OwnedFd};

    /// Folds the raw `-errno` return convention into `io::Result`.
    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    /// A fresh epoll instance (`EPOLL_CLOEXEC`).
    pub fn epoll_create1() -> io::Result<OwnedFd> {
        gate(Site::EpollCreate)?;
        let fd = check(unsafe { syscall6(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        // SAFETY: the kernel just handed us ownership of this fd.
        Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
    }

    /// Adds/modifies/removes `fd` on the interest list of `epfd`.
    pub fn epoll_ctl(
        epfd: BorrowedFd<'_>,
        op: u32,
        fd: RawFd,
        events: u32,
        data: u64,
    ) -> io::Result<()> {
        gate(Site::EpollCtl)?;
        let mut ev = EpollEvent { events, data };
        check(unsafe {
            syscall6(
                SYS_EPOLL_CTL,
                epfd.as_raw_fd() as usize,
                op as usize,
                fd as usize,
                std::ptr::addr_of_mut!(ev) as usize,
                0,
                0,
            )
        })?;
        Ok(())
    }

    /// Waits for events; `timeout_ms < 0` blocks indefinitely. Returns how
    /// many entries of `events` were filled. Implemented via `epoll_pwait`
    /// with a null sigmask (aarch64 never had plain `epoll_wait`).
    pub fn epoll_wait(
        epfd: BorrowedFd<'_>,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        gate(Site::EpollWait)?;
        check(unsafe {
            syscall6(
                SYS_EPOLL_PWAIT,
                epfd.as_raw_fd() as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as isize as usize,
                0, // sigmask: NULL — don't alter the signal mask
                8, // sigsetsize (ignored for NULL, but the kernel validates it)
            )
        })
    }

    /// A nonblocking close-on-exec eventfd with counter 0 — the reactor's
    /// cross-thread wakeup primitive.
    pub fn eventfd() -> io::Result<OwnedFd> {
        gate(Site::EventfdCreate)?;
        let fd =
            check(unsafe { syscall6(SYS_EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) })?;
        // SAFETY: fresh fd owned by us.
        Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
    }

    /// `write(2)` on a raw fd (used to post to an eventfd).
    pub fn write(fd: BorrowedFd<'_>, buf: &[u8]) -> io::Result<usize> {
        gate(Site::EventfdWrite)?;
        check(unsafe {
            syscall6(
                SYS_WRITE,
                fd.as_raw_fd() as usize,
                buf.as_ptr() as usize,
                buf.len(),
                0,
                0,
                0,
            )
        })
    }

    /// `read(2)` on a raw fd (used to drain an eventfd).
    pub fn read(fd: BorrowedFd<'_>, buf: &mut [u8]) -> io::Result<usize> {
        gate(Site::EventfdRead)?;
        check(unsafe {
            syscall6(
                SYS_READ,
                fd.as_raw_fd() as usize,
                buf.as_mut_ptr() as usize,
                buf.len(),
                0,
                0,
                0,
            )
        })
    }

    /// Installs a `SIGINT` + `SIGTERM` handler that raises the returned
    /// flag and returns (`SA_RESTART`, so in-flight blocking syscalls
    /// resume). Poll the flag from an ordinary loop to shut down
    /// gracefully — `atpm-served` uses it to flush its trace buffer and
    /// journal before exiting. Idempotent.
    pub fn arm_terminate_flag() -> io::Result<&'static AtomicBool> {
        const SIGINT: usize = 2;
        const SIGTERM: usize = 15;
        const SA_RESTART: usize = 0x1000_0000;
        let act = sigaction(on_terminate_signal as *const () as usize, SA_RESTART);
        for sig in [SIGINT, SIGTERM] {
            check(unsafe {
                syscall6(
                    SYS_RT_SIGACTION,
                    sig,
                    std::ptr::addr_of!(act) as usize,
                    0, // oldact: NULL
                    8, // sigsetsize
                    0,
                    0,
                )
            })?;
        }
        Ok(&TERMINATE)
    }

    /// Sends `sig` to the current process (tests only).
    #[cfg(test)]
    pub fn raise(sig: usize) -> io::Result<()> {
        let pid = check(unsafe { syscall6(SYS_GETPID, 0, 0, 0, 0, 0, 0) })?;
        check(unsafe { syscall6(SYS_KILL, pid, sig, 0, 0, 0, 0) })?;
        Ok(())
    }

    // ---- sampling CPU profiler (see module docs) ----

    const SIGPROF: usize = 27;
    const ITIMER_PROF: usize = 2;
    const SA_SIGINFO: usize = 4;
    const SA_RESTART: usize = 0x1000_0000;

    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        interval: Timeval,
        value: Timeval,
    }

    /// Our own pid, cached at arm time so the handler never has to make
    /// the `getpid` call under a possibly-forked state.
    static PROFILE_PID: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    /// Validated 16-byte read of `[addr, addr+16)` from our own address
    /// space via `process_vm_readv`: the kernel walks the page tables and
    /// returns `EFAULT`/short for unmapped memory, which is the only
    /// async-signal-safe way to probe an untrusted frame pointer.
    fn read_frame(addr: usize) -> Option<(usize, usize)> {
        #[repr(C)]
        struct IoVec {
            base: usize,
            len: usize,
        }
        let mut out = [0usize; 2];
        let local = IoVec {
            base: out.as_mut_ptr() as usize,
            len: 16,
        };
        let remote = IoVec {
            base: addr,
            len: 16,
        };
        let pid = PROFILE_PID.load(Ordering::Relaxed);
        let n = unsafe {
            syscall6(
                SYS_PROCESS_VM_READV,
                pid,
                std::ptr::addr_of!(local) as usize,
                1,
                std::ptr::addr_of!(remote) as usize,
                1,
                0,
            )
        };
        (n == 16).then_some((out[0], out[1]))
    }

    /// The SIGPROF handler: leaf PC from the ucontext, then a bounded
    /// frame-pointer walk. Both supported arches lay frame records out as
    /// `[fp] = caller's fp, [fp + 8] = return address`. Sanity checks:
    /// word alignment, frames strictly above the interrupted SP, bounded
    /// total stack span, and strictly monotone fp progression — any
    /// violation ends the walk with the frames gathered so far.
    extern "C" fn on_profile_signal(_sig: i32, _info: *mut u8, uctx: *mut u8) {
        // SAFETY: the kernel passed us this ucontext (SA_SIGINFO).
        let (pc, mut fp, sp) = unsafe { signal_regs(uctx) };
        let mut pcs = [0usize; atpm_obs::profile::MAX_DEPTH];
        pcs[0] = pc;
        let mut n = 1;
        let mut floor = sp;
        while n < pcs.len() {
            let misaligned = fp & (size_of::<usize>() - 1) != 0;
            if fp == 0 || misaligned || fp < floor || fp - floor > (1 << 26) {
                break;
            }
            let Some((next_fp, ret)) = read_frame(fp) else {
                break;
            };
            if ret < 0x1000 {
                break; // null/low return address: end of the chain
            }
            pcs[n] = ret;
            n += 1;
            floor = fp + size_of::<usize>();
            fp = next_fp;
        }
        atpm_obs::profile::record_sample(&pcs[..n]);
    }

    /// Arms the sampling profiler: installs the SIGPROF stack sampler and
    /// starts `setitimer(ITIMER_PROF)` firing every `1/hz` seconds of
    /// process CPU time. Samples accumulate in `atpm_obs::profile`;
    /// symbolize with `atpm_obs::profile::render_folded_since`. `hz = 0`
    /// disarms. Re-arming with a new rate is fine — `setitimer` replaces
    /// the previous interval.
    pub fn profiler_arm(hz: u32) -> io::Result<()> {
        if hz == 0 {
            return profiler_disarm();
        }
        let pid = check(unsafe { syscall6(SYS_GETPID, 0, 0, 0, 0, 0, 0) })?;
        PROFILE_PID.store(pid, Ordering::Relaxed);
        let act = sigaction(
            on_profile_signal as *const () as usize,
            SA_SIGINFO | SA_RESTART,
        );
        check(unsafe {
            syscall6(
                SYS_RT_SIGACTION,
                SIGPROF,
                std::ptr::addr_of!(act) as usize,
                0, // oldact: NULL
                8, // sigsetsize
                0,
                0,
            )
        })?;
        let period_us = (1_000_000 / hz.max(1)).max(1) as i64;
        let timer = Itimerval {
            interval: Timeval {
                sec: 0,
                usec: period_us,
            },
            value: Timeval {
                sec: 0,
                usec: period_us,
            },
        };
        check(unsafe {
            syscall6(
                SYS_SETITIMER,
                ITIMER_PROF,
                std::ptr::addr_of!(timer) as usize,
                0, // old value: NULL
                0,
                0,
                0,
            )
        })?;
        PROFILE_HZ.store(hz, Ordering::Relaxed);
        Ok(())
    }

    /// Stops the profiling timer (the SIGPROF disposition stays installed,
    /// harmless once the timer no longer fires).
    pub fn profiler_disarm() -> io::Result<()> {
        let timer = Itimerval {
            interval: Timeval { sec: 0, usec: 0 },
            value: Timeval { sec: 0, usec: 0 },
        };
        check(unsafe {
            syscall6(
                SYS_SETITIMER,
                ITIMER_PROF,
                std::ptr::addr_of!(timer) as usize,
                0,
                0,
                0,
                0,
            )
        })?;
        PROFILE_HZ.store(0, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use super::*;
    use std::os::fd::OwnedFd;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "atpm-net epoll shims are linux x86_64/aarch64 only",
        ))
    }

    pub fn epoll_create1() -> io::Result<OwnedFd> {
        unsupported()
    }

    pub fn epoll_ctl(
        _epfd: BorrowedFd<'_>,
        _op: u32,
        _fd: RawFd,
        _events: u32,
        _data: u64,
    ) -> io::Result<()> {
        unsupported()
    }

    pub fn epoll_wait(
        _epfd: BorrowedFd<'_>,
        _events: &mut [EpollEvent],
        _timeout_ms: i32,
    ) -> io::Result<usize> {
        unsupported()
    }

    pub fn eventfd() -> io::Result<OwnedFd> {
        unsupported()
    }

    pub fn write(_fd: BorrowedFd<'_>, _buf: &[u8]) -> io::Result<usize> {
        unsupported()
    }

    pub fn read(_fd: BorrowedFd<'_>, _buf: &mut [u8]) -> io::Result<usize> {
        unsupported()
    }

    pub fn arm_terminate_flag() -> io::Result<&'static AtomicBool> {
        // Touch the statics so unsupported builds don't warn on them.
        let _ = on_terminate_signal as *const ();
        unsupported()
    }

    pub fn profiler_arm(_hz: u32) -> io::Result<()> {
        unsupported()
    }

    pub fn profiler_disarm() -> io::Result<()> {
        unsupported()
    }
}

pub use imp::{
    arm_terminate_flag, epoll_create1, epoll_ctl, epoll_wait, eventfd, profiler_arm,
    profiler_disarm, read, write,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::fd::AsFd;

    #[test]
    fn this_repo_targets_a_supported_platform() {
        // The build container and CI are linux x86_64; if this ever fails
        // the serve layer cannot start at all.
        assert!(supported());
    }

    #[test]
    fn epoll_instance_creates_and_times_out() {
        let ep = epoll_create1().unwrap();
        let mut events = [EpollEvent::default(); 4];
        // Nothing registered: must time out promptly with zero events.
        let n = epoll_wait(ep.as_fd(), &mut events, 10).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn eventfd_roundtrip_through_raw_read_write() {
        let efd = eventfd().unwrap();
        // Drain on empty: nonblocking read must fail with WouldBlock.
        let mut buf = [0u8; 8];
        let err = read(efd.as_fd(), &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        // Post twice, read once: eventfd sums the counter.
        write(efd.as_fd(), &1u64.to_ne_bytes()).unwrap();
        write(efd.as_fd(), &1u64.to_ne_bytes()).unwrap();
        assert_eq!(read(efd.as_fd(), &mut buf).unwrap(), 8);
        assert_eq!(u64::from_ne_bytes(buf), 2);
    }

    #[test]
    fn epoll_reports_eventfd_readability_with_cookie() {
        let ep = epoll_create1().unwrap();
        let efd = eventfd().unwrap();
        epoll_ctl(
            ep.as_fd(),
            EPOLL_CTL_ADD,
            efd.as_raw_fd(),
            EPOLLIN,
            0xDEADBEEF,
        )
        .unwrap();
        write(efd.as_fd(), &1u64.to_ne_bytes()).unwrap();
        let mut events = [EpollEvent::default(); 4];
        let n = epoll_wait(ep.as_fd(), &mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let ev = events[0];
        let (bits, data) = (ev.events, ev.data);
        assert_eq!(data, 0xDEADBEEF);
        assert_ne!(bits & EPOLLIN, 0);
        // Deregister; the next wait must time out.
        epoll_ctl(ep.as_fd(), EPOLL_CTL_DEL, efd.as_raw_fd(), 0, 0).unwrap();
        assert_eq!(epoll_wait(ep.as_fd(), &mut events, 10).unwrap(), 0);
    }

    #[test]
    fn profiler_samples_a_busy_loop_with_sane_stacks() {
        // End-to-end check of the hard-coded ucontext offsets and the
        // frame-pointer walk: arm at a high rate, burn CPU, and require
        // that samples landed and at least one PC resolves to a symbol in
        // this binary. Wrong offsets would yield garbage PCs (resolving
        // nowhere) or a crash right here.
        profiler_arm(997).unwrap();
        let pos = atpm_obs::profile::cursor();
        // ITIMER_PROF ticks on CPU time, so busy-work guarantees fires.
        let mut acc = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed() < std::time::Duration::from_millis(300) {
            for i in 0..10_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
        }
        profiler_disarm().unwrap();
        assert_eq!(profiler_hz(), 0);
        let stacks = atpm_obs::profile::collect_since(pos);
        assert!(
            !stacks.is_empty(),
            "no SIGPROF samples after 300ms of busy CPU at 997 Hz"
        );
        let symbols = atpm_obs::profile::Symbolizer::from_self().unwrap();
        let resolved = stacks
            .iter()
            .flatten()
            .filter(|&&pc| symbols.resolve(pc).is_some())
            .count();
        assert!(
            resolved > 0,
            "none of {} sampled PCs resolve to a symbol — bad ucontext offsets?",
            stacks.iter().map(|s| s.len()).sum::<usize>()
        );
    }

    #[test]
    fn sigterm_raises_the_terminate_flag_instead_of_killing_us() {
        let flag = arm_terminate_flag().unwrap();
        assert!(!flag.load(Ordering::Acquire));
        imp::raise(15).unwrap(); // SIGTERM, handled — the process survives
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !flag.load(Ordering::Acquire) {
            assert!(
                std::time::Instant::now() < deadline,
                "terminate flag never raised"
            );
            std::thread::yield_now();
        }
    }
}
