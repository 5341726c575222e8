#include "kernel/vfs.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/cost_model.h"
#include "sim/thread.h"

namespace bsim::kern {

// ---- default op implementations (ENOSYS/no-op, like NULL fn pointers) ----

Result<Inode*> InodeOps::create(Inode&, std::string_view, std::uint32_t) {
  return Err::NoSys;
}
Err InodeOps::unlink(Inode&, std::string_view) { return Err::NoSys; }
Result<Inode*> InodeOps::mkdir(Inode&, std::string_view, std::uint32_t) {
  return Err::NoSys;
}
Err InodeOps::rmdir(Inode&, std::string_view) { return Err::NoSys; }
Err InodeOps::rename(Inode&, std::string_view, Inode&, std::string_view) {
  return Err::NoSys;
}
Err InodeOps::setattr(Inode&, const SetAttr&) { return Err::NoSys; }
Err InodeOps::getattr(Inode& inode, Stat& out) {
  out.ino = inode.ino();
  out.type = inode.type;
  out.mode = inode.mode;
  out.nlink = inode.nlink;
  out.size = inode.size;
  out.blocks = (inode.size + 511) / 512;
  out.atime = inode.atime;
  out.mtime = inode.mtime;
  out.ctime = inode.ctime;
  return Err::Ok;
}

Err FileOps::open(Inode&, FileHandle&) { return Err::Ok; }
Err FileOps::release(Inode&, FileHandle&) { return Err::Ok; }
Err FileOps::flush(Inode&, FileHandle&) { return Err::Ok; }
Err FileOps::readdir(Inode&, std::uint64_t&, const DirFiller&) {
  return Err::NotDir;
}

void SuperBlock::fs_error(Err e) {
  if (e == Err::Ok) return;
  s_wb_err_.record(e);
  if (fs_error_ == Err::Ok) fs_error_ = e;
  switch (errors_mode) {
    case ErrorsMode::RemountRo:
      read_only_ = true;
      break;
    case ErrorsMode::Continue:
      break;
    case ErrorsMode::Panic:
      std::fprintf(stderr, "bsim: fs error (%d) on %s with errors=panic\n",
                   static_cast<int>(e), fs_name.c_str());
      std::abort();
  }
}

void SuperBlock::mark_inode_dirty(Inode& inode) {
  if (inode.on_dirty_list_) return;
  inode.on_dirty_list_ = true;
  dirty_inodes_.push_back(&inode);
}

void SuperBlock::collect_dirty_inodes(std::vector<Inode*>& out,
                                      std::uint64_t& scanned) {
  std::size_t keep = 0;
  for (Inode* inode : dirty_inodes_) {
    scanned += 1;
    if (inode->mapping.nr_dirty() == 0) {
      inode->on_dirty_list_ = false;  // drained: prune lazily
      continue;
    }
    dirty_inodes_[keep++] = inode;
    if (inode->type == FileType::Regular && inode->aops != nullptr) {
      out.push_back(inode);
    }
  }
  dirty_inodes_.resize(keep);
}

// ---- SuperBlock: inode cache ----

Inode* SuperBlock::iget_cached(Ino ino) {
  auto it = icache_.find(ino);
  if (it == icache_.end()) return nullptr;
  it->second->refcount_ += 1;
  return it->second.get();
}

Inode& SuperBlock::inew(Ino ino) {
  assert(!icache_.contains(ino));
  auto inode = std::make_unique<Inode>(*this, ino);
  inode->refcount_ = 1;
  Inode* raw = inode.get();
  icache_.emplace(ino, std::move(inode));
  return *raw;
}

void SuperBlock::iput(Inode* inode) {
  if (inode == nullptr) return;
  assert(inode->refcount_ > 0);
  inode->refcount_ -= 1;
  if (inode->refcount_ == 0 && inode->nlink == 0) {
    if (s_op != nullptr) s_op->evict_inode(*inode);
    if (inode->on_dirty_list_) {
      std::erase(dirty_inodes_, inode);  // the inode is about to die
    }
    icache_.erase(inode->ino());
  }
  // Inodes with links stay cached until unmount (icache pruning is not
  // relevant to any measured behaviour).
}

// ---- SuperBlock: dentry cache ----

std::string SuperBlock::dkey(Inode& dir, std::string_view name) {
  std::string key = std::to_string(dir.ino());
  key.push_back('/');
  key.append(name);
  return key;
}

Inode* SuperBlock::dcache_lookup(Inode& dir, std::string_view name) {
  auto it = dcache_.find(dkey(dir, name));
  if (it == dcache_.end()) return nullptr;
  return iget_cached(it->second);
}

void SuperBlock::dcache_add(Inode& dir, std::string_view name, Ino child) {
  dcache_[dkey(dir, name)] = child;
}

void SuperBlock::dcache_remove(Inode& dir, std::string_view name) {
  dcache_.erase(dkey(dir, name));
}

Err SuperBlock::sync_all() {
  if (flusher_ != nullptr) flusher_->wait_idle();
  for (auto& [ino, inode] : icache_) {
    if (inode->type == FileType::Regular && inode->aops != nullptr) {
      BSIM_TRY(generic_writeback(*inode));
    }
  }
  if (s_op != nullptr) BSIM_TRY(s_op->sync_fs(*this, /*wait=*/true));
  return Err::Ok;
}

// ---- generic file read/write ----

Result<std::uint64_t> generic_file_read(Inode& inode, std::uint64_t off,
                                        std::span<std::byte> out) {
  assert(inode.aops != nullptr);
  if (off >= inode.size) return std::uint64_t{0};
  const std::uint64_t want =
      std::min<std::uint64_t>(out.size(), inode.size - off);

  const std::uint64_t last_pg = (off + want - 1) / kPageSize;
  const std::uint64_t eof_pg = (inode.size - 1) / kPageSize;

  // Sequential-stream detection (once per call, before the page walk): a
  // read starting where the previous one ended grows the speculative
  // window (doubling, capped at kReadaheadMaxPages); anything else
  // collapses it. The window extends the miss-triggered readahead below
  // BEYOND the request, so a 4 KiB-at-a-time sequential scan still issues
  // large batched ->readpages calls instead of one per page.
  const std::size_t ra_window =
      inode.mapping.update_readahead(off / kPageSize, last_pg);
  const std::uint64_t ra_last_pg =
      std::min<std::uint64_t>(eof_pg, last_pg + ra_window);

  std::uint64_t done = 0;
  while (done < want) {
    const std::uint64_t pos = off + done;
    const std::uint64_t pgoff = pos / kPageSize;
    const std::size_t within = static_cast<std::size_t>(pos % kPageSize);
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(kPageSize - within,
                                                         want - done));
    const auto copy_out = [&](const Page& page) {
      sim::charge(sim::costs().page_copy * static_cast<sim::Nanos>(chunk) /
                  static_cast<sim::Nanos>(kPageSize));
      std::memcpy(out.data() + done, page.bytes().data() + within, chunk);
      done += chunk;
    };
    if (inode.mapping.resident(pgoff)) {
      // Hold the per-file lock across lookup + copy (see io_mutex()).
      sim::ScopedLock io(inode.mapping.io_mutex());
      auto page = inode.mapping.read_page(inode, *inode.aops, pgoff);
      if (!page.ok()) return page.error();
      copy_out(*page.value());
      continue;
    }
    // A miss, or a fill still in flight at this clock: look the page up,
    // then fill it (or wait for the fill) and copy with no lock held. Any
    // lock taken after the device wait would serialize every reader whose
    // clock is earlier, since a lock keeps only its latest release time.
    Page& page = inode.mapping.find_or_alloc(pgoff);
    // Readahead: a miss with more of the read window (or a speculative
    // stream window) ahead populates the remaining pages through the
    // batched ->readpages path (multi-block bios, one device submission)
    // instead of faulting page-at-a-time.
    if (ra_last_pg > pgoff) {
      BSIM_TRY(inode.mapping.read_pages(
          inode, *inode.aops, pgoff,
          static_cast<std::size_t>(ra_last_pg - pgoff + 1)));
    }
    BSIM_TRY(inode.mapping.fill_page(inode, *inode.aops, pgoff, page));
    copy_out(page);
  }
  return done;
}

Result<std::uint64_t> generic_file_write(Inode& inode, std::uint64_t off,
                                         std::span<const std::byte> in) {
  assert(inode.aops != nullptr);
  // One walk looks up the leading run of pages the write may overwrite
  // in place (see AddressSpace::walk_for_write); every page from the
  // first one it stopped at is looked up on its own.
  std::vector<Page*> walked;
  if (!in.empty()) {
    const std::uint64_t end = off + in.size();
    inode.mapping.walk_for_write(off / kPageSize, (end - 1) / kPageSize,
                                 end % kPageSize != 0, walked);
  }
  std::uint64_t done = 0;
  while (done < in.size()) {
    const std::uint64_t pos = off + done;
    const std::uint64_t pgoff = pos / kPageSize;
    const std::size_t within = static_cast<std::size_t>(pos % kPageSize);
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPageSize - within, in.size() - done));
    const std::size_t nth = static_cast<std::size_t>(pgoff - off / kPageSize);
    Page* page = nth < walked.size() ? walked[nth]
                                     : &inode.mapping.find_or_alloc(pgoff);

    // Partial overwrite of an existing page within the file must read it
    // first; full-page writes (or fresh extension) need not.
    const bool full_page = within == 0 && chunk == kPageSize;
    const bool beyond_eof = pos >= inode.size;
    if (full_page || beyond_eof) {
      page->uptodate = true;  // fully (over)written or beyond old EOF
    } else {
      BSIM_TRY(inode.mapping.fill_page(inode, *inode.aops, pgoff, *page));
    }
    sim::charge(sim::costs().page_copy * static_cast<sim::Nanos>(chunk) /
                static_cast<sim::Nanos>(kPageSize));
    std::memcpy(page->bytes().data() + within, in.data() + done, chunk);
    inode.mapping.mark_dirty(pgoff);
    done += chunk;
  }
  inode.size = std::max(inode.size, off + done);
  inode.mtime = sim::now();

  // balance_dirty_pages analogue. With a flusher attached, the drain runs
  // on the background thread's clock (the writer is only charged the
  // poke); without one, writers are throttled by doing the writeback
  // themselves once the inode accumulates kDirtyPagesThreshold dirty
  // pages, the flusher's default trigger.
  if (Flusher* f = inode.sb().flusher(); f != nullptr) {
    f->poke(inode);
  } else if (inode.mapping.nr_dirty() >= kDirtyPagesThreshold) {
    BSIM_TRY(generic_writeback(inode));
  }
  return done;
}

Err generic_writeback(Inode& inode) {
  assert(inode.aops != nullptr);
  return inode.mapping.writeback(inode, *inode.aops);
}

void generic_truncate_pagecache(Inode& inode, std::uint64_t new_size) {
  const std::uint64_t first_gone = (new_size + kPageSize - 1) / kPageSize;
  inode.mapping.truncate_from(first_gone);
  inode.mapping.zero_tail(new_size);
  inode.size = new_size;
}

}  // namespace bsim::kern
