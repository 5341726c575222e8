// io_uring-style asynchronous syscall batching (paper §8.1).
//
// The paper's future work points at io_uring twice: as a way to cut the
// per-operation user/kernel crossings that dominate the FUSE baseline's
// block I/O ("Using this interface for the I/O accesses from the FUSE
// version of the xv6 file system ... could result in better performance
// numbers"), and as a VFS-bypass hook for Bento itself. This module
// provides the first: a submission/completion queue pair over the
// simulated kernel.
//
// Model: userspace prepares SQEs in shared memory (untimed bookkeeping),
// then calls submit() — ONE user/kernel crossing for the whole batch.
// The kernel consumes each SQE with a small per-entry dispatch cost (no
// per-op trap) and posts a CQE. Completions are harvested from shared
// memory with pop_cqe() at memory-access cost, with no crossing. Relative
// to N separate syscalls, a batch of N saves (N-1) crossings plus N VFS
// dispatches — exactly the arithmetic of §6.4's "each block operation
// from userspace must pass across the user/kernel boundary".
//
// Like the rest of the simulation, ops execute synchronously in virtual
// time at submit(); what io_uring buys in this model is crossing
// amortization, not I/O overlap (the device model already overlaps I/O
// through its queue).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>

#include "kernel/kernel.h"

namespace bsim::kern {

/// One submission-queue entry (subset of io_uring_sqe).
struct Sqe {
  enum class Op : std::uint8_t { Read, Write, Fsync };
  Op op = Op::Read;
  int fd = -1;
  std::uint64_t off = 0;
  std::span<std::byte> read_buf;
  std::span<const std::byte> write_buf;
  bool datasync = false;
  std::uint64_t user_data = 0;
};

/// One completion-queue entry (io_uring_cqe analogue).
struct Cqe {
  std::uint64_t user_data = 0;
  Err err = Err::Ok;
  std::uint64_t res = 0;  // bytes transferred (0 for fsync)
};

class IoUring {
 public:
  /// `sq_entries` bounds the batch size, like io_uring_setup's ring size.
  IoUring(Kernel& kernel, Process& proc, unsigned sq_entries = 128);

  IoUring(const IoUring&) = delete;
  IoUring& operator=(const IoUring&) = delete;

  // ---- SQE preparation: shared-memory writes, untimed ----
  Err prep_read(int fd, std::span<std::byte> out, std::uint64_t off,
                std::uint64_t user_data);
  Err prep_write(int fd, std::span<const std::byte> in, std::uint64_t off,
                 std::uint64_t user_data);
  Err prep_fsync(int fd, bool datasync, std::uint64_t user_data);

  /// io_uring_enter(2): one crossing, then the kernel drains the SQ.
  /// Returns the number of SQEs consumed.
  Result<unsigned> submit();

  /// Harvest one completion from the CQ (shared memory, no crossing).
  std::optional<Cqe> pop_cqe();

  [[nodiscard]] unsigned sq_pending() const {
    return static_cast<unsigned>(sq_.size());
  }
  [[nodiscard]] unsigned cq_ready() const {
    return static_cast<unsigned>(cq_.size());
  }

  struct Stats {
    std::uint64_t sqes = 0;     // ops submitted over the lifetime
    std::uint64_t enters = 0;   // crossings paid
    std::uint64_t cqes = 0;     // completions harvested
    std::uint64_t bdev_batches = 0;  // multi-bio device submissions
    std::uint64_t async_runs = 0;    // bdev runs left in flight (QD>1)
    std::uint64_t max_inflight_runs = 0;  // peak overlapped bdev runs
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct InflightRun {
    blk::BlockDevice* dev = nullptr;
    blk::Ticket ticket;
  };

  Err push(Sqe sqe);
  /// Consume the run of consecutive same-op SQEs on block device fd
  /// `of`, submitting them as one ASYNC bio batch whose ticket is pushed
  /// onto `inflight` (successive runs in one SQ drain overlap across the
  /// device channels). `first` has already been popped and counted;
  /// returns how many further SQEs were consumed.
  unsigned drain_bdev_run(const Sqe& first, OpenFile& of,
                          std::vector<InflightRun>& inflight);
  /// Redeem every in-flight bdev run (the completion barrier before an
  /// fsync / non-bdev SQE executes, and before submit() returns).
  void wait_inflight(std::vector<InflightRun>& inflight);

  Kernel* kernel_;
  Process* proc_;
  unsigned sq_entries_;
  std::deque<Sqe> sq_;
  std::deque<Cqe> cq_;
  Stats stats_;
};

}  // namespace bsim::kern
