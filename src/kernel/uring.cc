#include "kernel/uring.h"

#include "sim/cost_model.h"
#include "sim/thread.h"

namespace bsim::kern {

IoUring::IoUring(Kernel& kernel, Process& proc, unsigned sq_entries)
    : kernel_(&kernel), proc_(&proc), sq_entries_(sq_entries) {}

Err IoUring::push(Sqe sqe) {
  if (sq_.size() >= sq_entries_) return Err::Again;  // SQ full: submit first
  sq_.push_back(sqe);
  return Err::Ok;
}

Err IoUring::prep_read(int fd, std::span<std::byte> out, std::uint64_t off,
                       std::uint64_t user_data) {
  Sqe sqe;
  sqe.op = Sqe::Op::Read;
  sqe.fd = fd;
  sqe.off = off;
  sqe.read_buf = out;
  sqe.user_data = user_data;
  return push(sqe);
}

Err IoUring::prep_write(int fd, std::span<const std::byte> in,
                        std::uint64_t off, std::uint64_t user_data) {
  Sqe sqe;
  sqe.op = Sqe::Op::Write;
  sqe.fd = fd;
  sqe.off = off;
  sqe.write_buf = in;
  sqe.user_data = user_data;
  return push(sqe);
}

Err IoUring::prep_fsync(int fd, bool datasync, std::uint64_t user_data) {
  Sqe sqe;
  sqe.op = Sqe::Op::Fsync;
  sqe.fd = fd;
  sqe.datasync = datasync;
  sqe.user_data = user_data;
  return push(sqe);
}

void IoUring::wait_inflight(std::vector<InflightRun>& inflight) {
  for (const InflightRun& run : inflight) run.dev->wait(run.ticket);
  inflight.clear();
}

unsigned IoUring::drain_bdev_run(const Sqe& first, OpenFile& of,
                                 std::vector<InflightRun>& inflight) {
  // Gather the run of consecutive SQEs with the same op on the same
  // block-device fd and submit them as ONE batch: the request queue
  // merges adjacent blocks and spreads the rest across device channels,
  // so an SQ drain amortizes device submission as well as crossings.
  std::vector<Sqe> run{first};
  while (!sq_.empty() && sq_.front().op == first.op &&
         sq_.front().fd == first.fd) {
    run.push_back(sq_.front());
    sq_.pop_front();
  }

  auto& dev = *of.bdev;
  std::vector<blk::Bio> bios;
  std::vector<std::size_t> bio_cqe;  // bios[j] completes cqes[bio_cqe[j]]
  std::vector<Cqe> cqes(run.size());
  bios.reserve(run.size());
  for (std::size_t i = 0; i < run.size(); ++i) {
    if (i > 0) sim::charge(sim::costs().uring_sqe_dispatch);
    const Sqe& sqe = run[i];
    cqes[i].user_data = sqe.user_data;
    const std::span<const std::byte> wbuf = sqe.write_buf;
    const std::span<std::byte> rbuf = sqe.read_buf;
    const std::size_t len =
        sqe.op == Sqe::Op::Read ? rbuf.size() : wbuf.size();
    if (sqe.off % dev.block_size() != 0 || len % dev.block_size() != 0) {
      cqes[i].err = Err::Inval;  // O_DIRECT alignment, per SQE
      continue;
    }
    sim::charge(sim::costs().user_blockio_extra);
    blk::Bio bio(sqe.op == Sqe::Op::Read ? blk::BioOp::Read
                                         : blk::BioOp::Write);
    for (std::uint64_t done = 0; done < len; done += dev.block_size()) {
      const std::uint64_t blockno = (sqe.off + done) / dev.block_size();
      if (sqe.op == Sqe::Op::Read) {
        bio.add_read(blockno, rbuf.subspan(static_cast<std::size_t>(done),
                                           dev.block_size()));
      } else {
        bio.add_write(blockno, wbuf.subspan(static_cast<std::size_t>(done),
                                            dev.block_size()));
      }
    }
    if (bio.empty()) {
      cqes[i].res = 0;
      continue;
    }
    bios.push_back(std::move(bio));
    bio_cqe.push_back(i);
    cqes[i].res = len;
  }
  stats_.bdev_batches += bios.size() > 1 ? 1 : 0;
  if (!bios.empty()) {
    // Async submission: this run's requests stay in flight while the SQ
    // drain continues, so consecutive runs (different ops or fds) overlap
    // across the device channels — QD>1 from one submitting thread. The
    // barrier is wait_inflight(), before any ordering-sensitive SQE and
    // before io_uring_enter returns. The bios move into the inflight
    // record: a plugged device may defer dispatch and keep pointers into
    // them until its plug closes.
    const blk::Ticket t = dev.submit_async(bios);
    // A bio's failure is known once it dispatches: at submission, unless
    // a plug defers it.
    for (std::size_t j = 0; j < bios.size(); ++j) {
      if (!bios[j].io_error) continue;
      cqes[bio_cqe[j]].err = Err::Io;
      cqes[bio_cqe[j]].res = 0;
    }
    inflight.push_back(InflightRun{&dev, t, std::move(bios)});
    stats_.async_runs += 1;
    stats_.max_inflight_runs =
        std::max<std::uint64_t>(stats_.max_inflight_runs, inflight.size());
  }
  for (const Cqe& cqe : cqes) cq_.push_back(cqe);
  stats_.sqes += run.size() - 1;  // caller counts the first
  return static_cast<unsigned>(run.size() - 1);
}

Result<unsigned> IoUring::submit() {
  // One crossing for the whole batch — the io_uring_enter(2) trap.
  sim::charge(sim::costs().syscall);
  stats_.enters += 1;

  unsigned consumed = 0;
  std::vector<InflightRun> inflight;
  while (!sq_.empty()) {
    const Sqe sqe = sq_.front();
    sq_.pop_front();
    consumed += 1;
    stats_.sqes += 1;

    // Kernel-side SQE fetch + dispatch: cheaper than a trap + full VFS
    // dispatch, but not free.
    sim::charge(sim::costs().uring_sqe_dispatch);

    Cqe cqe;
    cqe.user_data = sqe.user_data;
    auto f = kernel_->file_for(*proc_, sqe.fd);
    if (!f.ok()) {
      cqe.err = f.error();
      cq_.push_back(cqe);
      continue;
    }
    OpenFile& of = *f.value();
    if (of.bdev != nullptr &&
        (sqe.op == Sqe::Op::Read || sqe.op == Sqe::Op::Write)) {
      consumed += drain_bdev_run(sqe, of, inflight);
      continue;
    }
    // Ordering-sensitive SQE (fsync, or a file op that may touch the same
    // blocks through a file system): complete all in-flight bdev runs
    // before it executes.
    wait_inflight(inflight);
    switch (sqe.op) {
      case Sqe::Op::Read: {
        auto r = kernel_->file_read(of, sqe.read_buf, sqe.off);
        if (r.ok()) {
          cqe.res = r.value();
        } else {
          cqe.err = r.error();
        }
        break;
      }
      case Sqe::Op::Write: {
        auto r = kernel_->file_write(of, sqe.write_buf, sqe.off);
        if (r.ok()) {
          cqe.res = r.value();
        } else {
          cqe.err = r.error();
        }
        break;
      }
      case Sqe::Op::Fsync:
        cqe.err = kernel_->do_fsync(of, sqe.datasync);
        break;
    }
    cq_.push_back(cqe);
  }
  wait_inflight(inflight);
  return consumed;
}

std::optional<Cqe> IoUring::pop_cqe() {
  if (cq_.empty()) return std::nullopt;
  sim::charge(sim::costs().uring_cqe_pop);
  stats_.cqes += 1;
  const Cqe cqe = cq_.front();
  cq_.pop_front();
  return cqe;
}

}  // namespace bsim::kern
