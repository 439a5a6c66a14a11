/**
 * @file
 * Paged FunctionalMemory tests:
 *
 *  - randomized cross-check of read/write/footprintWords against a
 *    word-keyed std::unordered_map model, over page-boundary words,
 *    addresses near 2^64 and words written as zero
 *  - golden bytes: ser() writes exactly what ckpt::Ar writes for the
 *    equivalent unordered_map<Addr, uint64_t>, the encoding of the
 *    checkpoint `workload` section
 *  - save -> load round trip, and word-map bytes loading back
 *  - loading rejects non-ascending keys, duplicates, out-of-range keys,
 *    impossible counts and truncated streams with ckpt::Error
 */

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/serial.hh"
#include "common/rng.hh"
#include "mem/functional_memory.hh"

using emc::Addr;
using emc::FunctionalMemory;
using emc::ckpt::Ar;
using WordMap = std::unordered_map<Addr, std::uint64_t>;

namespace
{

/** Addresses the model test draws from: clustered, edge and random. */
Addr
pickAddr(emc::Rng &rng)
{
    static const Addr kEdges[] = {
        0,
        8,
        4096 - 8,            // last word of page 0
        4096,                // first word of page 1
        (Addr{1} << 32) - 8,
        ~Addr{0} - 7,        // last word of the address space
        ~Addr{0} - 4095,     // first word of the last page
        ~Addr{0} - 4103,     // last word of the second-to-last page
    };
    switch (rng.below(4)) {
    case 0:
        return kEdges[rng.below(std::size(kEdges))];
    case 1:
        return 0x10000 + 8 * rng.below(3 * 512);  // three dense pages
    case 2:
        return ~Addr{0} - 8 * rng.below(2048);    // top of the space
    default:
        return rng.next() & ~Addr{7};
    }
}

std::vector<std::uint8_t>
saveMem(FunctionalMemory &mem)
{
    Ar ar = Ar::saver();
    ar.io(mem);
    return ar.takeBytes();
}

std::vector<std::uint8_t>
saveMap(WordMap &map)
{
    Ar ar = Ar::saver();
    ar.io(map);
    return ar.takeBytes();
}

void
loadMem(FunctionalMemory &mem, std::vector<std::uint8_t> bytes)
{
    Ar ar = Ar::loader(std::move(bytes));
    ar.io(mem);
    EXPECT_TRUE(ar.exhausted());
}

/** A raw image: the word count, then (key, value) pairs as given. */
std::vector<std::uint8_t>
rawImage(std::uint64_t count,
         const std::vector<std::pair<Addr, std::uint64_t>> &pairs)
{
    Ar ar = Ar::saver();
    ar.raw64(count);
    for (auto [k, v] : pairs) {
        ar.raw64(k);
        ar.raw64(v);
    }
    return ar.takeBytes();
}

/** Fill @p mem and its model with the same random write sequence. */
void
fillBoth(FunctionalMemory &mem, WordMap &model, std::uint64_t seed,
         int writes)
{
    emc::Rng rng(seed);
    for (int i = 0; i < writes; ++i) {
        const Addr a = pickAddr(rng);
        // One write in four stores zero: it still counts as written.
        const std::uint64_t v = rng.below(4) == 0 ? 0 : rng.next();
        mem.write(a, v);
        model[a >> 3] = v;
    }
}

} // namespace

TEST(FunctionalMemory, MatchesMapModel)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        FunctionalMemory mem;
        WordMap model;
        emc::Rng rng(seed * 977);
        for (int i = 0; i < 20000; ++i) {
            const Addr a = pickAddr(rng);
            if (rng.below(2) == 0) {
                const std::uint64_t v =
                    rng.below(4) == 0 ? 0 : rng.next();
                mem.write(a, v);
                model[a >> 3] = v;
            } else {
                const auto it = model.find(a >> 3);
                ASSERT_EQ(mem.read(a),
                          it == model.end() ? 0 : it->second)
                    << "seed " << seed << " addr " << a;
            }
            ASSERT_EQ(mem.footprintWords(), model.size());
        }
    }
}

TEST(FunctionalMemory, UnalignedAddressesShareTheirWord)
{
    FunctionalMemory mem;
    mem.write(0x1003, 42);
    EXPECT_EQ(mem.read(0x1000), 42u);
    EXPECT_EQ(mem.read(0x1007), 42u);
    EXPECT_EQ(mem.read(0x1008), 0u);
    EXPECT_EQ(mem.footprintWords(), 1u);
}

TEST(FunctionalMemory, ZeroWritesCountAndReadZero)
{
    FunctionalMemory mem;
    EXPECT_EQ(mem.footprintWords(), 0u);
    EXPECT_EQ(mem.read(0x40), 0u);
    mem.write(0x40, 0);
    EXPECT_EQ(mem.footprintWords(), 1u);
    mem.write(0x40, 0);
    EXPECT_EQ(mem.footprintWords(), 1u);
    // A read of an unwritten word does not make it written.
    EXPECT_EQ(mem.read(0x48), 0u);
    EXPECT_EQ(mem.footprintWords(), 1u);
}

TEST(FunctionalMemory, SerBytesMatchMapEncoding)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        FunctionalMemory mem;
        WordMap model;
        fillBoth(mem, model, seed, 5000);
        EXPECT_EQ(saveMem(mem), saveMap(model)) << "seed " << seed;
    }
    FunctionalMemory empty;
    WordMap none;
    EXPECT_EQ(saveMem(empty), saveMap(none));
}

TEST(FunctionalMemory, SaveLoadRoundTrip)
{
    FunctionalMemory mem;
    WordMap model;
    fillBoth(mem, model, 7, 5000);
    const std::vector<std::uint8_t> bytes = saveMem(mem);

    FunctionalMemory back;
    back.write(0x123456788, 99);  // loading replaces prior contents
    loadMem(back, bytes);
    EXPECT_EQ(back.footprintWords(), model.size());
    for (const auto &[key, value] : model)
        EXPECT_EQ(back.read(key << 3), value);
    EXPECT_EQ(back.read(0x123456788), 0u);
    EXPECT_EQ(saveMem(back), bytes);

    // Bytes ckpt::Ar writes for the word map load the same way.
    FunctionalMemory from_map;
    loadMem(from_map, saveMap(model));
    EXPECT_EQ(saveMem(from_map), bytes);
}

TEST(FunctionalMemory, LoadRejectsUnorderedKeys)
{
    FunctionalMemory mem;
    EXPECT_THROW(loadMem(mem, rawImage(2, {{5, 1}, {4, 2}})),
                 emc::ckpt::Error);
}

TEST(FunctionalMemory, LoadRejectsDuplicateKeys)
{
    FunctionalMemory mem;
    EXPECT_THROW(loadMem(mem, rawImage(2, {{5, 1}, {5, 2}})),
                 emc::ckpt::Error);
}

TEST(FunctionalMemory, LoadRejectsOutOfRangeKeys)
{
    // No 64-bit address has a word index at or above 2^61.
    FunctionalMemory mem;
    EXPECT_THROW(loadMem(mem, rawImage(1, {{Addr{1} << 61, 1}})),
                 emc::ckpt::Error);
    loadMem(mem, rawImage(1, {{(Addr{1} << 61) - 1, 3}}));
    EXPECT_EQ(mem.read(~Addr{0}), 3u);
}

TEST(FunctionalMemory, LoadRejectsTruncatedStreams)
{
    FunctionalMemory src;
    WordMap model;
    fillBoth(src, model, 11, 200);
    const std::vector<std::uint8_t> bytes = saveMem(src);
    for (std::size_t cut : {std::size_t{0}, std::size_t{4},
                            std::size_t{8}, std::size_t{16},
                            bytes.size() / 2, bytes.size() - 8}) {
        FunctionalMemory mem;
        std::vector<std::uint8_t> t(bytes.begin(), bytes.begin() + cut);
        EXPECT_THROW(loadMem(mem, t), emc::ckpt::Error) << "cut " << cut;
    }
}

TEST(FunctionalMemory, LoadRejectsImpossibleCounts)
{
    for (std::uint64_t n : {std::uint64_t{2}, std::uint64_t{1} << 40,
                            std::uint64_t{1} << 61, ~std::uint64_t{0}}) {
        FunctionalMemory mem;
        EXPECT_THROW(loadMem(mem, rawImage(n, {{1, 1}})),
                     emc::ckpt::Error)
            << "count " << n;
    }
}
