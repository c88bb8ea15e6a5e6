#include "compress/lz.hpp"

#include <bit>
#include <cstring>

#include "common/check.hpp"

namespace kdd {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr int kHashBits = 13;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr int kMaxChainProbes = 16;

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Length of the common prefix of a and b, where b may read up to `limit`
/// bytes. Word-at-a-time with a ctz finish: the match-extension loop is the
/// hottest part of the compressor on delta pages (long runs of equal bytes).
std::size_t common_prefix(const std::uint8_t* a, const std::uint8_t* b,
                          std::size_t limit) {
  std::size_t len = 0;
  while (len + 8 <= limit) {
    const std::uint64_t diff = read_u64(a + len) ^ read_u64(b + len);
    if (diff != 0) {
      return len + static_cast<std::size_t>(std::countr_zero(diff)) / 8;
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

void put_length(std::vector<std::uint8_t>& out, std::size_t extra) {
  while (extra >= 255) {
    out.push_back(255);
    extra -= 255;
  }
  out.push_back(static_cast<std::uint8_t>(extra));
}

/// Hash-chain match finder with buffers reused across calls (per thread).
/// The head table is invalidated by epoch stamping instead of clearing, so a
/// 4 KiB page costs zero table initialisation; prev[] entries are only ever
/// read for positions inserted in the current epoch, so it needs sizing only.
struct MatchFinder {
  struct Head {
    std::uint32_t epoch = 0;
    std::int32_t pos = -1;
  };
  std::vector<Head> head;
  std::vector<std::int32_t> prev;
  std::uint32_t epoch = 0;

  void begin(std::size_t n) {
    if (head.size() != kHashSize) head.assign(kHashSize, Head{});
    if (prev.size() < n) prev.resize(n);
    ++epoch;
    if (epoch == 0) {  // wrapped: stale stamps could alias, hard-reset once
      head.assign(kHashSize, Head{});
      epoch = 1;
    }
  }

  std::int32_t first(std::uint32_t h) const {
    return head[h].epoch == epoch ? head[h].pos : -1;
  }

  void insert(std::uint32_t h, std::size_t pos) {
    prev[pos] = first(h);
    head[h].epoch = epoch;
    head[h].pos = static_cast<std::int32_t>(pos);
  }

  static MatchFinder& local() {
    thread_local MatchFinder mf;
    return mf;
  }
};

}  // namespace

std::size_t lz_max_compressed_size(std::size_t src_size) {
  // Worst case: all literals — token byte + extension bytes + literals.
  return src_size + src_size / 255 + 16;
}

void lz_compress_into(std::span<const std::uint8_t> src,
                      std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(src.size() / 2 + 16);

  const std::uint8_t* base = src.data();
  const std::size_t n = src.size();

  MatchFinder& mf = MatchFinder::local();
  mf.begin(n);

  std::size_t literal_start = 0;
  std::size_t pos = 0;

  auto emit = [&](std::size_t match_len, std::size_t offset) {
    const std::size_t lit = pos - literal_start;
    const std::uint8_t lit_nibble = static_cast<std::uint8_t>(lit < 15 ? lit : 15);
    const bool has_match = match_len > 0;
    std::size_t match_extra = 0;
    std::uint8_t match_nibble = 0;
    if (has_match) {
      const std::size_t code = match_len - kMinMatch;
      match_nibble = static_cast<std::uint8_t>(code < 15 ? code : 15);
      match_extra = code;
    }
    out.push_back(static_cast<std::uint8_t>((lit_nibble << 4) | match_nibble));
    if (lit >= 15) put_length(out, lit - 15);
    out.insert(out.end(), base + literal_start, base + literal_start + lit);
    if (has_match) {
      out.push_back(static_cast<std::uint8_t>(offset & 0xff));
      out.push_back(static_cast<std::uint8_t>(offset >> 8));
      if (match_nibble == 15) put_length(out, match_extra - 15);
    }
  };

  // Hoisted raw pointers: `out` is a byte vector, and stores through
  // std::uint8_t* may alias anything, so keeping the finder state behind
  // member accessors forces reloads inside the hot loop.
  MatchFinder::Head* const head = mf.head.data();
  std::int32_t* const prev = mf.prev.data();
  const std::uint32_t epoch = mf.epoch;

  while (pos + kMinMatch <= n) {
    const std::uint32_t cur4 = read_u32(base + pos);
    const std::uint32_t h = hash4(cur4);
    const MatchFinder::Head head_h = head[h];
    std::int32_t cand = head_h.epoch == epoch ? head_h.pos : -1;
    std::size_t best_len = 0;
    std::size_t best_off = 0;
    int probes = kMaxChainProbes;
    while (cand >= 0 && probes-- > 0) {
      const std::size_t cpos = static_cast<std::size_t>(cand);
      const std::size_t off = pos - cpos;
      if (off > kMaxOffset) break;
      // Reject quickly: a candidate that cannot beat best_len is skipped
      // before the (expensive) full extension.
      if (read_u32(base + cpos) == cur4 &&
          (best_len == 0 || (pos + best_len < n &&
                             base[cpos + best_len] == base[pos + best_len]))) {
        const std::size_t len =
            kMinMatch + common_prefix(base + cpos + kMinMatch,
                                      base + pos + kMinMatch,
                                      n - pos - kMinMatch);
        if (len > best_len) {
          best_len = len;
          best_off = off;
        }
      }
      cand = prev[cpos];
    }
    prev[pos] = head_h.epoch == epoch ? head_h.pos : -1;
    head[h] = {epoch, static_cast<std::int32_t>(pos)};
    if (best_len >= kMinMatch) {
      emit(best_len, best_off);
      // Insert hash entries for the matched region (sparsely, every other
      // byte, to bound compression cost on long runs).
      const std::size_t end = pos + best_len;
      for (std::size_t p = pos + 1; p + kMinMatch <= n && p < end; p += 2) {
        const std::uint32_t hh = hash4(read_u32(base + p));
        const MatchFinder::Head hp = head[hh];
        prev[p] = hp.epoch == epoch ? hp.pos : -1;
        head[hh] = {epoch, static_cast<std::int32_t>(p)};
      }
      pos = end;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  pos = n;
  emit(0, 0);  // final literal-only token (may carry zero literals)
}

std::vector<std::uint8_t> lz_compress(std::span<const std::uint8_t> src) {
  std::vector<std::uint8_t> out;
  lz_compress_into(src, out);
  return out;
}

bool lz_decompress(std::span<const std::uint8_t> src, std::size_t expected_size,
                   std::vector<std::uint8_t>& out) {
  out.resize(expected_size);
  const bool ok = lz_decompress_into(src, out);
  if (!ok) out.clear();
  return ok;
}

bool lz_decompress_into(std::span<const std::uint8_t> src,
                        std::span<std::uint8_t> out) {
  const std::size_t expected_size = out.size();
  std::uint8_t* const ob = out.data();
  std::size_t op = 0;  // write cursor
  std::size_t ip = 0;
  const std::size_t in_n = src.size();

  auto read_length = [&](std::size_t base_len) -> std::size_t {
    std::size_t len = base_len;
    while (true) {
      if (ip >= in_n) return SIZE_MAX;
      const std::uint8_t b = src[ip++];
      len += b;
      if (b != 255) return len;
    }
  };

  while (ip < in_n) {
    const std::uint8_t token = src[ip++];
    std::size_t lit = token >> 4;
    if (lit == 15) {
      lit = read_length(15);
      if (lit == SIZE_MAX) return false;
    }
    if (ip + lit > in_n || op + lit > expected_size) return false;
    // An empty output span has a null data(): memcpy's pointers must be
    // valid even for a zero-length copy.
    if (lit > 0) std::memcpy(ob + op, src.data() + ip, lit);
    op += lit;
    ip += lit;
    if (op == expected_size) {
      return ip == in_n;  // final token carries no match
    }
    if (ip + 2 > in_n) return false;
    const std::size_t offset =
        static_cast<std::size_t>(src[ip]) | (static_cast<std::size_t>(src[ip + 1]) << 8);
    ip += 2;
    if (offset == 0 || offset > op) return false;
    std::size_t mlen = token & 0x0f;
    if (mlen == 15) {
      mlen = read_length(15);
      if (mlen == SIZE_MAX) return false;
    }
    mlen += kMinMatch;
    if (op + mlen > expected_size) return false;
    const std::size_t from = op - offset;
    if (offset >= mlen) {
      // Non-overlapping: single bulk copy.
      std::memcpy(ob + op, ob + from, mlen);
      op += mlen;
    } else {
      // Overlapping match (offset 1 encodes runs): byte-by-byte semantics.
      for (std::size_t i = 0; i < mlen; ++i) ob[op + i] = ob[from + i];
      op += mlen;
    }
  }
  return op == expected_size;
}

}  // namespace kdd
