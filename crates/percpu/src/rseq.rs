//! The rseq(2) engine: glibc area discovery, the membarrier rseq fence,
//! and the two assembly critical sections (batch pop/push commit points;
//! single-object operations are batches of one).
//!
//! ## Protocol
//!
//! Each critical section is registered with the kernel through the
//! thread's rseq area (`area + 8` holds a pointer to the descriptor
//! while the section runs). The kernel guarantees that if the thread is
//! preempted, migrated, or takes a signal while its instruction pointer
//! is inside `[start_ip, start_ip + post_commit_offset)`, control
//! resumes at `abort_ip` instead — so everything before the single
//! commit store is free to be re-run, and the commit store itself is the
//! linearization point. The sections here:
//!
//! * validate the running CPU against the slot the caller picked,
//! * re-check the slot's mode word (a remote drain parks the slot in
//!   `MODE_OFF` *before* issuing the fence, so a section that started
//!   earlier either aborts on the fence or already committed),
//! * read `current`, copy the `k` items at `items[current-k..current]`
//!   out (pop) or into the dead slots `items[current..current+k]` (push),
//!   and
//! * commit with one plain store to `current`.
//!
//! Aborts restart from scratch; nothing observable happened. The only
//! stores before the commit are to dead item slots, which a concurrent
//! remote drain never reads (it reads `0..current` only) and a same-CPU
//! successor section overwrites before its own commit, or to the
//! caller's buffer, which the caller trusts only after a commit.
//!
//! ## Fence
//!
//! `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED_RSEQ)` interrupts every
//! CPU running this process and restarts any in-flight critical
//! section. After `mode := OFF; fence()`, no rseq commit can land: a
//! section that read the old mode was aborted by the fence, and any new
//! section re-reads the mode inside its window and bails. This is the
//! same expedited-membarrier machinery the RCU grace-period advancer
//! uses against compiler-fence-only readers — one registration covers
//! the process.

#[cfg(all(pbs_rseq, not(miri)))]
mod imp {
    use std::sync::atomic::{AtomicU8, Ordering};

    use crate::SlotHdr;

    /// How many aborted attempts a single operation tolerates before
    /// giving the slow path a turn; under heavy preemption the slot lock
    /// is the better protocol anyway.
    pub(crate) const RESTART_BUDGET: u64 = 64;

    /// Section return codes: restart, slot not in rseq mode, or
    /// `RSEQ_MOVED + k` after committing a move of `k` objects.
    pub(crate) const RSEQ_RESTART: usize = 1;
    pub(crate) const RSEQ_BYPASS: usize = 2;
    pub(crate) const RSEQ_MOVED: usize = 4;

    // glibc ≥ 2.35 registers an rseq area for every thread and exports
    // its location relative to the thread pointer (fs base on x86-64).
    // `__rseq_size == 0` means registration is disabled (old kernel or
    // glibc tunable) and the engine must not run.
    extern "C" {
        static __rseq_offset: isize;
        static __rseq_size: u32;
    }

    const SYS_MEMBARRIER: i64 = 324;
    const MEMBARRIER_CMD_PRIVATE_EXPEDITED_RSEQ: i64 = 1 << 7;
    const MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED_RSEQ: i64 = 1 << 8;

    fn membarrier(cmd: i64) -> i64 {
        let ret: i64;
        // SAFETY: well-formed membarrier syscall; no memory is passed.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MEMBARRIER => ret,
                in("rdi") cmd,
                in("rsi") 0,
                in("rdx") 0,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// 0 = unprobed, 1 = rseq + fence available, 2 = unavailable.
    static SUPPORT: AtomicU8 = AtomicU8::new(0);

    pub(crate) fn supported() -> bool {
        match SUPPORT.load(Ordering::Acquire) {
            1 => true,
            2 => false,
            _ => probe(),
        }
    }

    #[cold]
    fn probe() -> bool {
        // SAFETY: reading a glibc-initialized extern static.
        let registered = unsafe { __rseq_size } >= 20;
        // The engine is only safe with the rseq fence (remote drains
        // rely on it), so its registration gates the whole engine.
        let ok = registered && membarrier(MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED_RSEQ) == 0;
        SUPPORT.store(if ok { 1 } else { 2 }, Ordering::Release);
        ok
    }

    /// Restarts every in-flight rseq critical section in this process.
    /// No-op when the engine never probed available (nothing to fence).
    pub(crate) fn fence() {
        if supported() {
            let ret = membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED_RSEQ);
            assert_eq!(
                ret, 0,
                "rseq membarrier fence failed after successful registration"
            );
        }
    }

    /// This thread's rseq area (kernel-updated `cpu_id` at +4,
    /// `rseq_cs` pointer at +8).
    #[inline]
    pub(crate) fn area() -> *mut u8 {
        let tp: *mut u8;
        // SAFETY: reads the thread pointer from the TCB self-pointer at
        // fs:0 (x86-64 SysV TLS ABI).
        unsafe {
            std::arch::asm!(
                "mov {}, qword ptr fs:[0]",
                out(reg) tp,
                options(nostack, preserves_flags, readonly),
            );
        }
        // SAFETY: glibc guarantees the area lives at this offset for
        // every thread once __rseq_size > 0 (checked in `supported`).
        unsafe { tp.offset(__rseq_offset) }
    }

    /// The CPU this thread is running on, as maintained by the kernel.
    /// `u32::MAX` when the thread is not registered.
    #[inline]
    pub(crate) fn current_cpu(area: *mut u8) -> u32 {
        // SAFETY: in-bounds field of the registered rseq area; volatile
        // because the kernel writes it asynchronously.
        unsafe { (area.add(4) as *const u32).read_volatile() }
    }

    extern "C" {
        fn pbs_percpu_rseq_push_many(
            area: *mut u8,
            cpu: u32,
            slot: *const SlotHdr,
            objs: *const usize,
            n: usize,
        ) -> usize;
        fn pbs_percpu_rseq_pop_many(
            area: *mut u8,
            cpu: u32,
            slot: *const SlotHdr,
            out: *mut usize,
            n: usize,
        ) -> usize;
    }

    /// Push commit point: copies up to `n` objects from `objs` onto the
    /// slot (as many as fit) and commits once. Returns [`RSEQ_MOVED`] +
    /// the number pushed, [`RSEQ_RESTART`] (preempted, migrated or
    /// aborted) or [`RSEQ_BYPASS`] (slot not in rseq mode).
    ///
    /// # Safety
    ///
    /// `area` must be this thread's registered rseq area and `slot` a
    /// live [`SlotHdr`] whose index equals `cpu`; `objs` must be readable
    /// for `n` real object addresses.
    #[inline]
    pub(crate) unsafe fn push_many(
        area: *mut u8,
        cpu: u32,
        slot: &SlotHdr,
        objs: *const usize,
        n: usize,
    ) -> usize {
        pbs_percpu_rseq_push_many(area, cpu, slot, objs, n)
    }

    /// Pop commit point: copies up to `n` objects off the top of the slot
    /// into `out` (bottom first) and commits once. Returns
    /// [`RSEQ_MOVED`] + the number popped or, as for [`push_many`], a
    /// restart or bypass code, after which `out` holds garbage.
    ///
    /// # Safety
    ///
    /// As for [`push_many`]; `out` must be writable for `n` values.
    #[inline]
    pub(crate) unsafe fn pop_many(
        area: *mut u8,
        cpu: u32,
        slot: &SlotHdr,
        out: *mut usize,
        n: usize,
    ) -> usize {
        pbs_percpu_rseq_pop_many(area, cpu, slot, out, n)
    }

    // SlotHdr layout contract shared with the assembly below:
    //   +0  current (u64)   — the commit word
    //   +8  cap     (u64)
    //   +16 mode    (u32)   — must equal 1 (`Engine::Rseq`) to commit
    //   +24 items   (*mut usize)
    //
    // rseq ABI: area+4 = cpu_id (u32), area+8 = rseq_cs (u64 pointer to
    // the descriptor). The descriptor is {version, flags, start_ip,
    // post_commit_offset, abort_ip}, 32-byte aligned, and the four bytes
    // before abort_ip must hold the glibc signature 0x53053053.
    std::arch::global_asm!(
        r#"
        .pushsection .text
        // push_many(area=rdi, cpu=esi, slot=rdx, objs=rcx, n=r8): the
        // copy writes only dead slots above `current`, so an abort
        // anywhere before the commit leaves no trace.
        .p2align 4
        .globl pbs_percpu_rseq_push_many
        .type pbs_percpu_rseq_push_many, @function
    pbs_percpu_rseq_push_many:
        lea rax, [rip + 100f]
        mov qword ptr [rdi + 8], rax
    1:                                   // start_ip
        cmp dword ptr [rdi + 4], esi     // kernel-maintained cpu_id
        jne 3f                           // migrated since the caller looked
        cmp dword ptr [rdx + 16], 1      // slot mode
        jne 5f                           // parked or lock-owned
        mov r9, qword ptr [rdx]          // current
        mov r10, qword ptr [rdx + 8]
        sub r10, r9                      // room = cap - current
        cmp r10, r8
        cmova r10, r8                    // k = min(room, n)
        mov r11, qword ptr [rdx + 24]
        lea r11, [r11 + r9*8]            // dst = items + current
        add r9, r10                      // the commit value
        xor eax, eax
    6:  cmp rax, r10
        jae 7f
        mov r8, qword ptr [rcx + rax*8]
        mov qword ptr [r11 + rax*8], r8  // dead slot
        add rax, 1
        jmp 6b
    7:  mov qword ptr [rdx], r9          // COMMIT: current += k
    2:                                   // post-commit
        mov qword ptr [rdi + 8], 0
        lea rax, [r10 + 4]
        ret
    5:  mov qword ptr [rdi + 8], 0
        mov eax, 2
        ret
        .balign 4
        .long 0x53053053
    3:                                   // abort_ip
        mov qword ptr [rdi + 8], 0
        mov eax, 1
        ret
        .size pbs_percpu_rseq_push_many, . - pbs_percpu_rseq_push_many
        .pushsection .data.rel.ro, "aw"
        .balign 32
    100:
        .long 0, 0
        .quad 1b
        .quad 2b - 1b
        .quad 3b
        .popsection

        // pop_many(area=rdi, cpu=esi, slot=rdx, out=rcx, n=r8): the copy
        // only reads the slot and writes the caller's buffer, which the
        // caller trusts only after a commit.
        .p2align 4
        .globl pbs_percpu_rseq_pop_many
        .type pbs_percpu_rseq_pop_many, @function
    pbs_percpu_rseq_pop_many:
        lea rax, [rip + 100f]
        mov qword ptr [rdi + 8], rax
    1:                                   // start_ip
        cmp dword ptr [rdi + 4], esi     // kernel-maintained cpu_id
        jne 3f                           // migrated since the caller looked
        cmp dword ptr [rdx + 16], 1      // slot mode
        jne 5f                           // parked or lock-owned
        mov r9, qword ptr [rdx]          // current
        mov r10, r9
        cmp r10, r8
        cmova r10, r8                    // k = min(current, n)
        sub r9, r10                      // the commit value
        mov r11, qword ptr [rdx + 24]
        lea r11, [r11 + r9*8]            // src = items + current - k
        xor eax, eax
    6:  cmp rax, r10
        jae 7f
        mov r8, qword ptr [r11 + rax*8]
        mov qword ptr [rcx + rax*8], r8
        add rax, 1
        jmp 6b
    7:  mov qword ptr [rdx], r9          // COMMIT: current -= k
    2:                                   // post-commit
        mov qword ptr [rdi + 8], 0
        lea rax, [r10 + 4]
        ret
    5:  mov qword ptr [rdi + 8], 0
        mov eax, 2
        ret
        .balign 4
        .long 0x53053053
    3:                                   // abort_ip
        mov qword ptr [rdi + 8], 0
        mov eax, 1
        ret
        .size pbs_percpu_rseq_pop_many, . - pbs_percpu_rseq_pop_many
        .pushsection .data.rel.ro, "aw"
        .balign 32
    100:
        .long 0, 0
        .quad 1b
        .quad 2b - 1b
        .quad 3b
        .popsection
        .popsection
    "#
    );
}

#[cfg(not(all(pbs_rseq, not(miri))))]
mod imp {
    /// Without the rseq engine compiled in, the probe is a constant
    /// "no" and the fence has nothing to restart.
    pub(crate) fn supported() -> bool {
        false
    }

    pub(crate) fn fence() {}
}

pub(crate) use imp::*;
