// Minimal machine model: physical memory fronted by the PMP unit, plus a
// simulated call stack with high-watermark tracking.
//
// We do not model an instruction set; "software" is C++ code that performs
// its loads and stores through Machine::load/store under an explicit
// privilege mode, which is exactly the level at which PMP-based isolation
// operates. The SimStack reproduces the paper's SM stack-size finding: the
// ML-DSA signing working set overflows Keystone's default 8 KB per-core
// stack, which the authors fixed by raising it to 128 KB.
//
// Copy-on-write forking: memory is addressed through per-page pointer
// tables, so a Machine can be stamped out of a frozen MachineImage with
// every page aliasing the image's bytes. The first write to a page copies
// it into the fork's private backing store (see materialize_page); reads
// keep working on the shared bytes until then. Decoded code is shared the
// same way: the image carries the linked bytecode of its code pages, and
// a fork decodes privately only the words it changes (decoded_page). A
// non-forked Machine owns all of its pages from construction and pays no
// extra cost beyond the one pointer indirection per access.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "convolve/common/bytes.hpp"
#include "convolve/common/telemetry.hpp"
#include "convolve/tee/pmp.hpp"
#include "convolve/tee/rv32_decode.hpp"

namespace convolve::tee {

/// Thrown on a PMP access fault (hardware would raise a trap).
class AccessFault : public std::runtime_error {
 public:
  AccessFault(std::uint64_t addr, AccessType type);
  std::uint64_t address;
  AccessType access;
};

/// Thrown when a SimStack allocation exceeds its capacity.
class StackOverflow : public std::runtime_error {
 public:
  explicit StackOverflow(std::size_t requested, std::size_t capacity);
};

/// A bounded call stack with watermarking. Frames are pushed/popped by the
/// RAII guard StackFrame.
class SimStack {
 public:
  explicit SimStack(std::size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return used_; }
  std::size_t high_watermark() const { return watermark_; }

  void push(std::size_t bytes);
  void pop(std::size_t bytes);
  void reset_watermark() { watermark_ = used_; }

 private:
  std::size_t capacity_;
  std::size_t used_ = 0;
  std::size_t watermark_ = 0;
};

/// RAII stack frame.
class StackFrame {
 public:
  StackFrame(SimStack& stack, std::size_t bytes)
      : stack_(stack), bytes_(bytes) {
    stack_.push(bytes_);
  }
  ~StackFrame() { stack_.pop(bytes_); }
  StackFrame(const StackFrame&) = delete;
  StackFrame& operator=(const StackFrame&) = delete;

 private:
  SimStack& stack_;
  std::size_t bytes_;
};

/// A byte range [base, base + size) of machine memory.
struct MemRange {
  std::uint64_t base = 0;
  std::uint64_t size = 0;
};

/// One 4 KB code page as linked bytecode (see Machine::decoded_page): the
/// words it was decoded from and one 16-byte BcOp per word slot, decoded
/// from that word alone and already linked to its handler address. `version` is the page's store version
/// when the words were read. Slots past a partial last page are
/// kIllegal; the fetch bounds-faults before reaching them.
struct DecodedPage {
  static constexpr std::size_t kSlots = 1024;  // 32-bit words per page
  std::uint64_t base = 0;
  std::uint32_t version = 0;
  std::array<std::uint32_t, kSlots> words{};
  std::array<BcOp, kSlots> bytecode{};
};

/// Immutable frozen machine state (memory bytes, per-page store versions,
/// PMP configuration, decoded code) shared read-only by any number of CoW
/// forks. Created via Machine::freeze(); forks alias its pages until their
/// first write and execute its code table until they change a code page.
/// Nothing here is mutated once freeze() returns -- forks read the bytes
/// and the code table concurrently without synchronization.
struct MachineImage {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> page_versions;
  PmpUnit pmp;
  // Linked bytecode of the frozen code pages, sorted by base, each stamped
  // with its page_versions entry.
  std::vector<DecodedPage> code;
};

class Machine {
 public:
  /// Memory page granule for decode-cache invalidation and CoW forking:
  /// every store bumps the version counter of the page(s) it touches, so
  /// instruction caches built over a page can be validated with one
  /// compare, and forks copy pages at this granule on first write.
  static constexpr std::uint64_t kPageShift = 12;
  static constexpr std::uint64_t kPageBytes = 1ull << kPageShift;
  static constexpr std::uint64_t kPageMask = kPageBytes - 1;

  explicit Machine(std::size_t memory_bytes);

  /// Copy-on-write fork of a frozen image: every page aliases the image
  /// until first write, page versions and the PMP configuration are
  /// inherited, so the image's code table stays valid for every page the
  /// fork leaves alone and the fork starts in exactly the PMP view the
  /// image was frozen in.
  explicit Machine(std::shared_ptr<const MachineImage> image);

#if CONVOLVE_TELEMETRY_ENABLED
  ~Machine() { flush_telemetry(); }
#endif

  /// Freeze the current memory/versions/PMP into an immutable image that
  /// CoW forks can be constructed from. Copies the memory once, and
  /// decodes (once, linked) every page holding a nonzero byte inside one
  /// of the `code` ranges into the image's shared code table.
  std::shared_ptr<const MachineImage> freeze(
      std::span<const MemRange> code = {}) const;

  /// True when this machine was forked from a MachineImage.
  bool is_fork() const { return image_ != nullptr; }

  /// Pages copied out of the shared image so far (0 for non-forks).
  std::uint64_t cow_pages_materialized() const { return cow_materialized_; }

  /// Publish the PMP-memo miss, decode and CoW tallies to the global
  /// telemetry counters (rv32.pmp_memo.misses, rv32.decode.shared_hits,
  /// rv32.decode_cache.misses, rv32.decode.words_redecoded,
  /// tee.cow.pages_materialized) and zero them.
  /// Called from the destructor; call explicitly before snapshotting when
  /// the Machine is still alive. No-op in CONVOLVE_TELEMETRY=OFF builds.
  void flush_telemetry() const;

  PmpUnit& pmp() { return pmp_; }
  const PmpUnit& pmp() const { return pmp_; }
  std::size_t memory_size() const { return size_; }

  /// PMP-checked accesses. Throw AccessFault on denial or out-of-range.
  void store(std::uint64_t addr, ByteView data, PrivMode mode);
  Bytes load(std::uint64_t addr, std::size_t len, PrivMode mode) const;
  std::uint8_t load_byte(std::uint64_t addr, PrivMode mode) const;

  /// PMP-checked constant fill (`len` bytes of `value`), allocation-free
  /// replacement for store(addr, Bytes(len, value), mode) used by the
  /// region-wipe paths. Throws AccessFault like store.
  void fill(std::uint64_t addr, std::size_t len, std::uint8_t value,
            PrivMode mode);

  /// Fetch check (execution permission on a region).
  bool can_execute(std::uint64_t addr, std::size_t len, PrivMode mode) const;

  /// Instruction fetch: PMP execute permission, 32-bit little-endian.
  std::uint32_t fetch32(std::uint64_t addr, PrivMode mode) const;

  // Allocation-free fast path -------------------------------------------
  //
  // The bytecode engine's loads and stores use these instead of
  // load/store: no Bytes allocation, no exception on the fault path (a
  // bool status is returned and the caller raises the architectural trap),
  // and the PMP decision is memoized per access type: the last allowed
  // check caches the uniform-decision window from PmpUnit::check_region,
  // so the common case (same region, same mode) is a few compares instead
  // of a 16-entry scan. The memo is keyed by the PMP epoch and is
  // therefore coherent across PMP reprogramming (enter_os/enter_enclave
  // context switches).
  //
  // Multi-byte accesses whose bytes stay within one page (the overwhelming
  // majority) go straight through the page pointer; the rare page-crossing
  // access splices bytes from both pages, which is also what makes the
  // accessors correct on CoW forks where adjacent pages need not be
  // adjacent in host memory.

  bool read8(std::uint64_t addr, PrivMode mode, std::uint8_t& out) const {
    if (!access_ok(addr, 1, mode, AccessType::kRead)) return false;
    out = *rptr(addr);
    return true;
  }
  bool read16(std::uint64_t addr, PrivMode mode, std::uint16_t& out) const {
    if (!access_ok(addr, 2, mode, AccessType::kRead)) return false;
    if ((addr & kPageMask) <= kPageBytes - 2) {
      const std::uint8_t* p = rptr(addr);
      out = static_cast<std::uint16_t>(p[0] |
                                       (static_cast<std::uint16_t>(p[1]) << 8));
    } else {
      out = static_cast<std::uint16_t>(
          *rptr(addr) | (static_cast<std::uint16_t>(*rptr(addr + 1)) << 8));
    }
    return true;
  }
  bool read32(std::uint64_t addr, PrivMode mode, std::uint32_t& out) const {
    if (!access_ok(addr, 4, mode, AccessType::kRead)) return false;
    out = read_u32_raw(addr);
    return true;
  }
  bool write8(std::uint64_t addr, std::uint8_t value, PrivMode mode) {
    if (!access_ok(addr, 1, mode, AccessType::kWrite)) return false;
    *wptr(addr) = value;
    touch_pages(addr, 1);
    return true;
  }
  bool write16(std::uint64_t addr, std::uint16_t value, PrivMode mode) {
    if (!access_ok(addr, 2, mode, AccessType::kWrite)) return false;
    if ((addr & kPageMask) <= kPageBytes - 2) {
      std::uint8_t* p = wptr(addr);
      p[0] = static_cast<std::uint8_t>(value);
      p[1] = static_cast<std::uint8_t>(value >> 8);
    } else {
      *wptr(addr) = static_cast<std::uint8_t>(value);
      *wptr(addr + 1) = static_cast<std::uint8_t>(value >> 8);
    }
    touch_pages(addr, 2);
    return true;
  }
  bool write32(std::uint64_t addr, std::uint32_t value, PrivMode mode) {
    if (!access_ok(addr, 4, mode, AccessType::kWrite)) return false;
    if ((addr & kPageMask) <= kPageBytes - 4) {
      store_le32(wptr(addr), value);
    } else {
      for (int i = 0; i < 4; ++i) {
        *wptr(addr + static_cast<std::uint64_t>(i)) =
            static_cast<std::uint8_t>(value >> (8 * i));
      }
    }
    touch_pages(addr, 4);
    return true;
  }
  /// Bounds + PMP decision for [addr, addr+len), memoized (see above).
  bool access_ok(std::uint64_t addr, std::size_t len, PrivMode mode,
                 AccessType type) const {
    const std::uint64_t end = addr + len;
    if (end > size_ || end < addr) return false;
    PmpMemo& m = memo_[static_cast<std::size_t>(type)];
    if (m.epoch == pmp_.epoch() && m.mode == mode && addr >= m.lo &&
        end <= m.hi) {
      // No tallying on the hit path: access_ok runs on every emulated load
      // and store, so only the cold refill path below counts.
      return true;
    }
    CONVOLVE_TELEMETRY_ONLY(++memo_misses_;)
    const auto r = pmp_.check_region(addr, len, mode, type, size_);
    if (!r.allowed) return false;
    m.lo = r.lo;
    m.hi = r.hi;
    m.mode = mode;
    m.epoch = pmp_.epoch();
    return true;
  }

  /// Execute-permission check for [addr, addr+4) that also hands back the
  /// memoized uniform-decision window [lo, hi): every 4-byte fetch with
  /// lo <= pc && pc + 4 <= hi under the same mode and PMP epoch is allowed
  /// without further checks. The bytecode engine hoists the per-instruction
  /// access_ok out of its dispatch loop with this: within one run() the PMP
  /// epoch cannot change (no CSR instructions; ecall exits the loop), so
  /// the window stays valid until the pc leaves it.
  bool execute_window(std::uint64_t addr, PrivMode mode, std::uint64_t& lo,
                      std::uint64_t& hi) const {
    if (!access_ok(addr, 4, mode, AccessType::kExecute)) return false;
    const PmpMemo& m = memo_[static_cast<std::size_t>(AccessType::kExecute)];
    // Valid on both the hit and the refill path: access_ok either matched
    // this memo or just refilled it. hi is already clamped to memory_size()
    // by check_region's limit argument.
    lo = m.lo;
    hi = m.hi;
    return true;
  }

  /// Version counter of the page containing `addr` (bumped on stores).
  std::uint32_t page_version(std::uint64_t addr) const {
    return page_version_[addr >> kPageShift];
  }

  /// Direct read-only view of a page's bytes. On a fork this points into
  /// the shared image until the page is materialized by a write.
  const std::uint8_t* page_data(std::uint64_t page_base) const {
    return rpage_[page_base >> kPageShift];
  }

  /// Linked bytecode of the page at `page_base` (page-aligned), current
  /// with the page's bytes. A lookup tries, in order: a private decode at
  /// the page's current version; the image's shared decode at that
  /// version; otherwise it refreshes a private copy of the best decode of
  /// the page it has (private, else shared), re-decoding only the slots
  /// whose word changed. Only a page with no decode at all is decoded
  /// whole. Private
  /// decodes live in a fully associative overlay of kOverlayPages pages,
  /// allocated on the first miss. Bytes only: the caller checks execute
  /// permission against the live PMP. The reference stays valid until the
  /// next call.
  const DecodedPage& decoded_page(std::uint64_t page_base);

  /// Unchecked debug access for test setup/inspection only. Every call
  /// bumps every page version, so decodes taken before it are revalidated
  /// against whatever is written through the span before the next run();
  /// writes through a span kept across a run() bypass page versioning and
  /// are not seen by decoded code. On a CoW fork this materializes every
  /// page first (the span must be private and contiguous); the shared
  /// image is never written through it.
  std::span<std::uint8_t> raw_memory() {
    if (image_) materialize_all();
    for (std::uint32_t& v : page_version_) ++v;
    return {own_.get(), size_};
  }

 private:
  struct PmpMemo {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;  // lo == hi: empty (never matches)
    PrivMode mode = PrivMode::kUser;
    std::uint64_t epoch = ~0ull;  // never matches a real epoch initially
  };

  // Shared frozen image (null unless forked). Holding the shared_ptr
  // keeps the aliased pages alive for this fork's lifetime.
  std::shared_ptr<const MachineImage> image_;
  // Private backing store for the full address space. Non-forks own every
  // page here from construction (zero-initialized); forks allocate it
  // uninitialized and copy pages in on first write.
  std::unique_ptr<std::uint8_t[]> own_;
  std::size_t size_ = 0;
  // Per-page views: rpage_[p] is where page p's bytes currently live
  // (image or own_); wpage_[p] is null while the page still aliases the
  // image and must be materialized before writing.
  std::vector<const std::uint8_t*> rpage_;
  std::vector<std::uint8_t*> wpage_;
  std::vector<std::uint32_t> page_version_;
  PmpUnit pmp_;
  mutable std::array<PmpMemo, 3> memo_{};
  std::uint64_t cow_materialized_ = 0;
  // Private decodes (see decoded_page). Capacity kOverlayPages is reserved
  // on the first miss and never exceeded, so entries never move; once
  // full, misses overwrite entries round-robin.
  static constexpr std::size_t kOverlayPages = 16;
  std::vector<DecodedPage> overlay_;
  std::size_t overlay_victim_ = 0;
#if CONVOLVE_TELEMETRY_ENABLED
  mutable std::uint64_t memo_misses_ = 0;
  mutable std::uint64_t cow_flushed_ = 0;  // cow_materialized_ published
  mutable std::uint64_t dc_shared_hits_ = 0;  // lookups served by the image
  mutable std::uint64_t dc_misses_ = 0;       // private page decodes
  mutable std::uint64_t dc_words_ = 0;        // slots re-decoded
#endif

  /// Bytes page p actually covers (the last page may be partial).
  std::size_t page_bytes_of(std::uint64_t p) const {
    const std::uint64_t base = p << kPageShift;
    return static_cast<std::size_t>(
        base + kPageBytes <= size_ ? kPageBytes : size_ - base);
  }

  const std::uint8_t* rptr(std::uint64_t addr) const {
    return rpage_[addr >> kPageShift] + (addr & kPageMask);
  }
  std::uint8_t* wptr(std::uint64_t addr) {
    const std::uint64_t p = addr >> kPageShift;
    std::uint8_t* q = wpage_[p];
    if (q == nullptr) q = materialize_page(p);
    return q + (addr & kPageMask);
  }
  std::uint32_t read_u32_raw(std::uint64_t addr) const {
    if ((addr & kPageMask) <= kPageBytes - 4) return load_le32(rptr(addr));
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(*rptr(addr + static_cast<std::uint64_t>(i)))
           << (8 * i);
    }
    return v;
  }

  /// Copy page p out of the shared image into the private backing store
  /// and repoint both views at it. Cold path of wptr.
  std::uint8_t* materialize_page(std::uint64_t p);
  void materialize_all();

  void bounds_check(std::uint64_t addr, std::size_t len,
                    AccessType type) const;
  void touch_pages(std::uint64_t addr, std::size_t len) {
    const std::uint64_t first = addr >> kPageShift;
    const std::uint64_t last = (addr + len - 1) >> kPageShift;
    for (std::uint64_t p = first; p <= last; ++p) ++page_version_[p];
  }
};

}  // namespace convolve::tee
