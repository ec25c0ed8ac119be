// Burrows-Wheeler block transform and its inverse, plus the surrounding
// bzip2-style stages (run-length guard, move-to-front, zero-run coding).
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytes.h"

namespace ecomp::compress {

/// Forward BWT of `block` (cyclic-rotation sort, O(n)). The rotation
/// order comes from an SA-IS suffix array of the block's least rotation
/// (a Lyndon word, whose suffix order is its rotation order), n symbols
/// rather than the doubled block's 2n; blocks that are cyclically
/// periodic sort one aperiodic unit and expand each rotation class in
/// ascending position order, so the output — last column and `primary`
/// — is bit-identical to the stable prefix-doubling sort it replaced.
/// `primary` receives the row index of the original string in the
/// sorted rotation matrix.
Bytes bwt_forward(ByteSpan block, std::uint32_t& primary);

/// Reference implementation of bwt_forward: prefix doubling with stable
/// radix sorts (O(n log n)). Kept for differential tests; produces
/// byte-identical output including tie order on periodic blocks.
Bytes bwt_forward_doubling(ByteSpan block, std::uint32_t& primary);

/// SA-IS suffix array of `text` under an implicit end-of-string sentinel
/// smaller than every byte: returns the n suffix start positions in
/// increasing suffix order. Exposed for the BWT and its tests.
std::vector<std::uint32_t> suffix_array(ByteSpan text);

/// Inverse BWT.
Bytes bwt_inverse(ByteSpan last_column, std::uint32_t primary);

/// bzip2-style pre-pass: runs of 4..259 equal bytes become 4 copies plus
/// a count byte. Guards the rotation sort against degenerate inputs.
Bytes rle1_encode(ByteSpan input);
Bytes rle1_decode(ByteSpan input);

/// Move-to-front transform over the byte alphabet.
Bytes mtf_encode(ByteSpan input);
Bytes mtf_decode(ByteSpan input);

/// Zero-run coding of MTF output into the 258-symbol alphabet used by
/// the entropy stage: RUNA=0 / RUNB=1 encode zero runs in bijective
/// base 2, byte value v>0 maps to v+1, and 257 is end-of-block.
inline constexpr std::uint32_t kZrleRunA = 0;
inline constexpr std::uint32_t kZrleRunB = 1;
inline constexpr std::uint32_t kZrleEob = 257;
inline constexpr std::size_t kZrleAlphabet = 258;

/// The BWT codec's largest block (level 9); a larger claim is damage.
inline constexpr std::size_t kMaxBwtBlock = 9 * 100'000;

std::vector<std::uint16_t> zrle_encode(ByteSpan mtf);
/// Inverse of zrle_encode. Throws once a zero run or the output would
/// pass `max_size` bytes, so a forged run cannot demand memory (a
/// decoder passes its block's declared size).
Bytes zrle_decode(const std::vector<std::uint16_t>& syms,
                  std::size_t max_size = kMaxBwtBlock);

}  // namespace ecomp::compress
