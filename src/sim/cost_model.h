// Central cost model: every tunable virtual-time cost in the simulation.
//
// The paper's evaluation (FAST'21 §6) ran on an 8-core i7 with a Samsung
// PM981 NVMe SSD accessed via PCIe passthrough. The defaults below are
// calibrated to that class of hardware; each field's comment says what it
// charges. Benchmarks may adjust the model via sim::costs() before
// constructing a kernel.
#pragma once

#include "sim/time.h"

namespace bsim::sim {

struct CostModel {
  // ---- CPU-side costs (scaled by core contention in the Runner) ----
  /// One user->kernel->user syscall round trip (trap, entry, audit, return).
  Nanos syscall = 1200;
  /// VFS dispatch overhead per syscall (fd lookup, f_op indirection, checks).
  Nanos vfs_dispatch = 600;
  /// Path resolution: per component, dcache hit.
  Nanos path_component = 120;
  /// Path resolution: per component on a dcache miss (excludes FS lookup).
  Nanos path_component_miss = 400;
  /// Page-cache radix lookup (hit or miss determination).
  Nanos page_lookup = 250;
  /// One further resident page of a buffered write's page walk, under the
  /// tree lock the walk already holds: the next slot (about 25 ns) plus
  /// the page lock round trip and the dirty tag, about one
  /// `lock_uncontended` each, which Linux's generic_perform_write still
  /// pays per folio.
  Nanos page_lookup_next = 100;
  /// Copy one 4 KiB page between kernel and user buffers.
  Nanos page_copy = 1000;
  /// Allocate + insert a page-cache page.
  Nanos page_alloc = 300;
  /// Uncontended lock acquire/release pair.
  Nanos lock_uncontended = 30;
  /// Contended spinlock ownership transfer: one cacheline bounce between
  /// cores plus the queued (MCS) handoff. Charged inside the critical
  /// section, so it lengthens the serial section under contention.
  Nanos spin_handoff = 400;
  /// Contended sleeping-lock acquisition: scheduler wake-up of the next
  /// waiter. Also charged inside the critical section.
  Nanos sched_wakeup = 900;
  /// Buffer-cache lookup (hash probe) for sb_bread.
  Nanos buffer_lookup = 100;
  /// Generic in-memory work for one FS operation's bookkeeping.
  Nanos fs_op_base = 200;
  /// Per-dirent cost of a linear directory scan (xv6 has no dir index).
  Nanos dir_scan_per_entry = 15;
  /// Per-inode cost of xv6's free-inode scan in ialloc, charged for each
  /// inode examined. The scan resumes at a cursor below which every inode
  /// is allocated, so a create usually examines one inode.
  Nanos ialloc_scan_per_inode = 12;
  /// Per-line cost of a free-bit scan of an allocation bitmap, charged for
  /// each 64-byte line examined (`kern::scan_bitmap`). Block and inode
  /// bitmaps of xv6, xv6c and ext4j resume at a first-free cursor, so an
  /// allocation usually examines one line; a whole 4 KiB bitmap is 320 ns.
  Nanos bitmap_scan_per_line = 5;
  /// Per-call overhead of the batched ->readpages readahead path...
  Nanos readpages_batch_overhead = 1200;
  /// ...plus this much per page within the batch.
  Nanos readpages_per_page = 200;
  /// Per-page overhead of the single-page ->writepage path.
  Nanos writepage_overhead = 1800;
  /// Per-call overhead of the batched ->writepages path...
  Nanos writepages_batch_overhead = 2500;
  /// ...plus this much per page within the batch.
  Nanos writepages_per_page = 300;

  // ---- FUSE transport (paper §2.2, §6.4) ----
  /// One kernel<->userspace boundary crossing (request wakeup or reply).
  Nanos fuse_crossing = 1500;
  /// Marshal/unmarshal a request header.
  Nanos fuse_request_base = 600;
  /// Copy payload across the boundary, per 4 KiB.
  Nanos fuse_copy_per_page = 400;
  /// Extra per-block-op cost of userspace O_DIRECT I/O through the host
  /// file interface ("adding 200-400ns to each operation", §6.4).
  Nanos user_blockio_extra = 300;
  /// Cost of fsync() on the backing disk file from userspace beyond the
  /// device flush itself: host VFS traversal + host-FS journal commit for
  /// the image file's metadata. This is the "whole disk file must be
  /// synced" penalty of §6.4.
  Nanos host_file_fsync = 600'000;

  // ---- Stacked file systems (§3.4) ----
  /// ChaCha20 software cipher, per 4 KiB (~2-3 cycles/byte on the paper's
  /// i7 class of hardware). Used by the CryptFs stacking layer.
  Nanos chacha_per_page = 2500;
  /// One VFS re-entry when a stacked FS calls the lower layer through
  /// top-level VFS functions instead of direct dispatch (the overhead the
  /// paper's Challenge 6 asks Bento to avoid). Used by the stacking
  /// ablation to model the Linux-style alternative.
  Nanos vfs_reentry = 700;
  /// Provenance bookkeeping per tracked operation (read-set/edge update).
  Nanos prov_track = 150;

  // ---- eBPF / ExtFUSE (paper §2.2) ----
  /// One executed instruction of a verified (JIT-compiled) program.
  Nanos ebpf_insn = 1;
  /// One BPF map operation (hash probe / insert / delete).
  Nanos ebpf_map_op = 80;

  // ---- io_uring (paper §8.1 future work) ----
  /// Kernel-side fetch + dispatch of one SQE during io_uring_enter. The
  /// whole batch shares a single `syscall` crossing; this is the per-op
  /// residue (ring read, opcode dispatch, fd table lookup).
  Nanos uring_sqe_dispatch = 150;
  /// Harvest one CQE from the shared-memory completion ring (no crossing).
  Nanos uring_cqe_pop = 30;

  // ---- Bento interposition ----
  /// BentoFS translation from a VFS call to the file-operations API
  /// (function-pointer indirection + argument repackaging; no copies).
  Nanos bento_dispatch = 60;
  /// Runtime argument check performed by a BentoKS wrapping abstraction
  /// (§4.7: "small since checks are not performed often and are simple").
  Nanos bento_wrapper_check = 15;

  // ---- Online upgrade (§4.8) ----
  /// Swap the registered operation table and transfer state ownership.
  Nanos upgrade_swap = 2'000;

  /// Number of physical cores; >cores runnable sim threads contend.
  int cpu_cores = 8;
};

/// Mutable global cost model. The simulation is single-real-threaded and
/// deterministic; benchmarks mutate this before building a kernel.
CostModel& costs();

}  // namespace bsim::sim
