/**
 * @file
 * Seeded structural mutations for the decoder fuzz tests (test_wire,
 * test_store).
 *
 * mutate() applies one random edit to a valid encoding: a few bit
 * flips, a truncation, a splice of a slice taken from a donor
 * encoding, or an edge-value overwrite of a length or count field.
 * The tests draw a bounded number of mutants per seed from the fixed
 * seed list kSeeds, so every run replays the same mutants and a
 * failure names the seed and iteration that reproduce it. The
 * sanitizer CI leg runs the same loops, so a decoder that reads out
 * of bounds on any mutant fails there.
 */

#ifndef OSCAR_TESTS_MUTATION_FUZZ_H
#define OSCAR_TESTS_MUTATION_FUZZ_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "src/common/rng.h"

namespace oscar {
namespace fuzz {

/** Seeds of the mutation loops (fixed: mutants are reproducible). */
constexpr std::uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34};

/** A little-endian length or count field of an encoding. */
struct LengthField
{
    std::size_t offset;
    std::size_t width; ///< bytes: 4 or 8
};

/** The values a corrupted length field is set to. */
inline std::uint64_t
edgeValue(Rng& rng, std::uint64_t original, std::size_t total)
{
    const std::uint64_t edges[] = {0,
                                   1,
                                   original - 1,
                                   original + 1,
                                   total,
                                   total + 1,
                                   std::uint64_t{1} << 30,
                                   (std::uint64_t{1} << 30) + 1,
                                   0x7FFFFFFFu,
                                   0xFFFFFFFFu,
                                   ~std::uint64_t{0},
                                   rng()};
    return edges[rng.uniformInt(std::size(edges))];
}

/**
 * One mutant of `bytes` (which must be non-empty). A length edit
 * targets one of `fields` half of the time, else a random offset.
 */
inline std::vector<std::uint8_t>
mutate(Rng& rng, const std::vector<std::uint8_t>& bytes,
       const std::vector<std::uint8_t>& donor,
       std::span<const LengthField> fields = {})
{
    std::vector<std::uint8_t> out = bytes;
    switch (rng.uniformInt(4)) {
      case 0: { // bit flips
        const std::uint64_t flips = 1 + rng.uniformInt(4);
        for (std::uint64_t i = 0; i < flips; ++i)
            out[rng.uniformInt(out.size())] ^=
                static_cast<std::uint8_t>(1u << rng.uniformInt(8));
        break;
      }
      case 1: // truncation
        out.resize(rng.uniformInt(out.size()));
        break;
      case 2: { // splice: replace [at, at + cut) by a donor slice
        const std::size_t at = rng.uniformInt(out.size() + 1);
        const std::size_t cut = rng.uniformInt(out.size() - at + 1);
        const std::size_t from = rng.uniformInt(donor.size() + 1);
        const std::size_t len = rng.uniformInt(donor.size() - from + 1);
        const auto pos = out.begin() + static_cast<std::ptrdiff_t>(at);
        out.erase(pos, pos + static_cast<std::ptrdiff_t>(cut));
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(at),
                   donor.begin() + static_cast<std::ptrdiff_t>(from),
                   donor.begin() + static_cast<std::ptrdiff_t>(from + len));
        break;
      }
      default: { // length-field edit
        LengthField field{rng.uniformInt(out.size()),
                          rng.uniformInt(2) ? std::size_t{8} : 4};
        if (!fields.empty() && rng.uniformInt(2))
            field = fields[rng.uniformInt(fields.size())];
        if (field.offset + field.width > out.size())
            field.offset = out.size() - std::min(out.size(), field.width);
        const std::size_t width =
            std::min(field.width, out.size() - field.offset);
        std::uint64_t original = 0;
        for (std::size_t b = 0; b < width; ++b)
            original |= std::uint64_t{out[field.offset + b]} << (8 * b);
        const std::uint64_t value = edgeValue(rng, original, out.size());
        for (std::size_t b = 0; b < width; ++b)
            out[field.offset + b] =
                static_cast<std::uint8_t>(value >> (8 * b));
        break;
      }
    }
    return out;
}

} // namespace fuzz
} // namespace oscar

#endif // OSCAR_TESTS_MUTATION_FUZZ_H
