#include "convolve/tee/machine.hpp"

#include <algorithm>
#include <cstring>
#include <string>

namespace convolve::tee {

namespace {
const char* access_name(AccessType t) {
  switch (t) {
    case AccessType::kRead: return "read";
    case AccessType::kWrite: return "write";
    case AccessType::kExecute: return "execute";
  }
  return "?";
}

std::size_t page_count_of(std::size_t bytes) {
  return (bytes + Machine::kPageBytes - 1) >> Machine::kPageShift;
}

static_assert(DecodedPage::kSlots * 4 == Machine::kPageBytes);

// Bring `d` in line with the n whole words at `src`: re-decode each slot
// whose word differs from d.words, or every slot when `whole` (a page with
// no earlier decode). Each re-decoded slot is linked to its handler before
// anyone can execute it. Returns the number of slots re-decoded.
std::uint64_t refresh_slots(DecodedPage& d, const std::uint8_t* src,
                            std::size_t n, bool whole) {
  const void* const* handlers = bytecode_handlers();
  const auto link = [handlers](BcOp& op) { op.target = handlers[op.handler]; };
  if (whole) {
    for (std::size_t i = n; i < DecodedPage::kSlots; ++i) {
      d.words[i] = 0;
      d.bytecode[i] = BcOp{};
      link(d.bytecode[i]);
    }
  }
  std::uint64_t redecoded = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t word = load_le32(src + 4 * i);
    if (!whole && word == d.words[i]) continue;
    d.words[i] = word;
    d.bytecode[i] = bytecode_single(decode_rv32(word));
    link(d.bytecode[i]);
    ++redecoded;
  }
  return redecoded;
}

const DecodedPage* find_code(const std::vector<DecodedPage>& code,
                             std::uint64_t page_base) {
  const auto it = std::lower_bound(
      code.begin(), code.end(), page_base,
      [](const DecodedPage& d, std::uint64_t base) { return d.base < base; });
  return it != code.end() && it->base == page_base ? &*it : nullptr;
}
}  // namespace

AccessFault::AccessFault(std::uint64_t addr, AccessType type)
    : std::runtime_error("PMP access fault: " + std::string(access_name(type)) +
                         " at 0x" + std::to_string(addr)),
      address(addr),
      access(type) {}

StackOverflow::StackOverflow(std::size_t requested, std::size_t capacity)
    : std::runtime_error("stack overflow: need " + std::to_string(requested) +
                         " bytes, capacity " + std::to_string(capacity)) {}

void SimStack::push(std::size_t bytes) {
  if (used_ + bytes > capacity_) {
    throw StackOverflow(used_ + bytes, capacity_);
  }
  used_ += bytes;
  if (used_ > watermark_) watermark_ = used_;
}

void SimStack::pop(std::size_t bytes) {
  used_ = (bytes > used_) ? 0 : used_ - bytes;
}

Machine::Machine(std::size_t memory_bytes)
    : own_(new std::uint8_t[memory_bytes]()),
      size_(memory_bytes),
      rpage_(page_count_of(memory_bytes)),
      wpage_(page_count_of(memory_bytes)),
      page_version_(page_count_of(memory_bytes), 0) {
  for (std::size_t p = 0; p < rpage_.size(); ++p) {
    std::uint8_t* q = own_.get() + (p << kPageShift);
    rpage_[p] = q;
    wpage_[p] = q;
  }
}

Machine::Machine(std::shared_ptr<const MachineImage> image)
    : image_(std::move(image)),
      // Uninitialized on purpose: pages are filled from the image as they
      // materialize; unmaterialized bytes are never read through own_.
      own_(new std::uint8_t[image_->bytes.size()]),
      size_(image_->bytes.size()),
      rpage_(page_count_of(image_->bytes.size())),
      wpage_(page_count_of(image_->bytes.size()), nullptr),
      page_version_(image_->page_versions),
      pmp_(image_->pmp) {
  const std::uint8_t* base = image_->bytes.data();
  for (std::size_t p = 0; p < rpage_.size(); ++p) {
    rpage_[p] = base + (p << kPageShift);
  }
}

std::shared_ptr<const MachineImage> Machine::freeze(
    std::span<const MemRange> code) const {
  auto img = std::make_shared<MachineImage>();
  img->bytes.resize(size_);
  // Page-wise copy through the read views so freezing a fork also works
  // (its unmaterialized pages still live in its parent image).
  for (std::size_t p = 0; p < rpage_.size(); ++p) {
    std::memcpy(img->bytes.data() + (p << kPageShift), rpage_[p],
                page_bytes_of(p));
  }
  img->page_versions = page_version_;
  img->pmp = pmp_;

  // Code pages: every page with a nonzero byte inside a code range.
  std::vector<std::uint64_t> pages;
  for (const MemRange& r : code) {
    const std::uint64_t end = std::min<std::uint64_t>(r.base + r.size, size_);
    for (std::uint64_t a = r.base; a < end;) {
      const std::uint64_t next = std::min(end, (a | kPageMask) + 1);
      const std::uint8_t* b = img->bytes.data() + a;
      if (std::any_of(b, b + (next - a),
                      [](std::uint8_t x) { return x != 0; })) {
        pages.push_back(a >> kPageShift);
      }
      a = next;
    }
  }
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  img->code.resize(pages.size());
  for (std::size_t i = 0; i < pages.size(); ++i) {
    DecodedPage& d = img->code[i];
    d.base = pages[i] << kPageShift;
    d.version = page_version_[pages[i]];
    refresh_slots(d, img->bytes.data() + d.base, page_bytes_of(pages[i]) / 4,
                  true);
  }
  return img;
}

const DecodedPage& Machine::decoded_page(std::uint64_t page_base) {
  const std::uint32_t version = page_version(page_base);
  DecodedPage* mine = nullptr;
  for (DecodedPage& d : overlay_) {
    if (d.base == page_base) {
      mine = &d;
      break;
    }
  }
  if (mine != nullptr && mine->version == version) return *mine;
  const DecodedPage* shared =
      image_ ? find_code(image_->code, page_base) : nullptr;
  if (shared != nullptr && shared->version == version) {
    CONVOLVE_TELEMETRY_ONLY(++dc_shared_hits_;)
    return *shared;
  }

  // Private decode: refresh the best decode of this page we have.
  const bool whole = mine == nullptr && shared == nullptr;
  if (mine == nullptr) {
    if (overlay_.size() < kOverlayPages) {
      // Reserved, not constructed: copies below write each page once.
      if (overlay_.capacity() == 0) overlay_.reserve(kOverlayPages);
      mine = shared ? &overlay_.emplace_back(*shared)
                    : &overlay_.emplace_back();
    } else {
      mine = &overlay_[overlay_victim_];
      overlay_victim_ = (overlay_victim_ + 1) % kOverlayPages;
      if (shared) *mine = *shared;
    }
  }
  const std::uint64_t p = page_base >> kPageShift;
  [[maybe_unused]] const std::uint64_t redecoded =
      refresh_slots(*mine, rpage_[p], page_bytes_of(p) / 4, whole);
  mine->base = page_base;
  mine->version = version;
  CONVOLVE_TELEMETRY_ONLY(++dc_misses_; dc_words_ += redecoded;)
  return *mine;
}

std::uint8_t* Machine::materialize_page(std::uint64_t p) {
  std::uint8_t* q = own_.get() + (p << kPageShift);
  std::memcpy(q, rpage_[p], page_bytes_of(p));
  rpage_[p] = q;
  wpage_[p] = q;
  ++cow_materialized_;
  return q;
}

void Machine::materialize_all() {
  for (std::size_t p = 0; p < wpage_.size(); ++p) {
    if (wpage_[p] == nullptr) materialize_page(p);
  }
}

#if CONVOLVE_TELEMETRY_ENABLED
namespace {
telemetry::Counter t_pmp_memo_misses{"rv32.pmp_memo.misses"};
telemetry::Counter t_dc_shared_hits{"rv32.decode.shared_hits"};
telemetry::Counter t_dc_misses{"rv32.decode_cache.misses"};
telemetry::Counter t_dc_words{"rv32.decode.words_redecoded"};
telemetry::Counter t_cow_materialized{"tee.cow.pages_materialized"};

void publish(telemetry::Counter& counter, std::uint64_t& tally) {
  if (tally != 0) counter.add(tally);
  tally = 0;
}
}  // namespace

void Machine::flush_telemetry() const {
  publish(t_pmp_memo_misses, memo_misses_);
  publish(t_dc_shared_hits, dc_shared_hits_);
  publish(t_dc_misses, dc_misses_);
  publish(t_dc_words, dc_words_);
  if (cow_materialized_ > cow_flushed_) {
    t_cow_materialized.add(cow_materialized_ - cow_flushed_);
    cow_flushed_ = cow_materialized_;
  }
}
#else
void Machine::flush_telemetry() const {}
#endif

void Machine::bounds_check(std::uint64_t addr, std::size_t len,
                           AccessType type) const {
  if (addr + len > size_ || addr + len < addr) {
    throw AccessFault(addr, type);
  }
}

void Machine::store(std::uint64_t addr, ByteView data, PrivMode mode) {
  bounds_check(addr, data.size(), AccessType::kWrite);
  if (!pmp_.check(addr, data.size(), mode, AccessType::kWrite)) {
    throw AccessFault(addr, AccessType::kWrite);
  }
  std::uint64_t a = addr;
  const std::uint8_t* src = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(left, kPageBytes - (a & kPageMask)));
    std::memcpy(wptr(a), src, chunk);
    a += chunk;
    src += chunk;
    left -= chunk;
  }
  if (!data.empty()) touch_pages(addr, data.size());
}

void Machine::fill(std::uint64_t addr, std::size_t len, std::uint8_t value,
                   PrivMode mode) {
  if (len == 0) return;
  bounds_check(addr, len, AccessType::kWrite);
  if (!pmp_.check(addr, len, mode, AccessType::kWrite)) {
    throw AccessFault(addr, AccessType::kWrite);
  }
  std::uint64_t a = addr;
  std::size_t left = len;
  while (left > 0) {
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(left, kPageBytes - (a & kPageMask)));
    std::memset(wptr(a), value, chunk);
    a += chunk;
    left -= chunk;
  }
  touch_pages(addr, len);
}

Bytes Machine::load(std::uint64_t addr, std::size_t len, PrivMode mode) const {
  bounds_check(addr, len, AccessType::kRead);
  if (!pmp_.check(addr, len, mode, AccessType::kRead)) {
    throw AccessFault(addr, AccessType::kRead);
  }
  Bytes out(len);
  std::uint64_t a = addr;
  std::uint8_t* dst = out.data();
  std::size_t left = len;
  while (left > 0) {
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(left, kPageBytes - (a & kPageMask)));
    std::memcpy(dst, rptr(a), chunk);
    a += chunk;
    dst += chunk;
    left -= chunk;
  }
  return out;
}

std::uint8_t Machine::load_byte(std::uint64_t addr, PrivMode mode) const {
  bounds_check(addr, 1, AccessType::kRead);
  if (!pmp_.check(addr, 1, mode, AccessType::kRead)) {
    throw AccessFault(addr, AccessType::kRead);
  }
  return *rptr(addr);
}

std::uint32_t Machine::fetch32(std::uint64_t addr, PrivMode mode) const {
  bounds_check(addr, 4, AccessType::kExecute);
  if (!pmp_.check(addr, 4, mode, AccessType::kExecute)) {
    throw AccessFault(addr, AccessType::kExecute);
  }
  return read_u32_raw(addr);
}

bool Machine::can_execute(std::uint64_t addr, std::size_t len,
                          PrivMode mode) const {
  if (addr + len > size_ || addr + len < addr) return false;
  return pmp_.check(addr, len, mode, AccessType::kExecute);
}

}  // namespace convolve::tee
