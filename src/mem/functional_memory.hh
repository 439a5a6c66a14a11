/**
 * @file
 * Paged functional memory backing the simulated address spaces.
 *
 * The timing model never reads data out of the DRAM model — values
 * come from here, keyed by virtual address, one address space per
 * core (multi-programmed SPEC-style mixes have disjoint spaces).
 *
 * Storage is 4 KB pages of 512 words, each with a 512-bit written
 * mask. Pages are owned by one flat vector and found through a
 * page-number index plus a one-entry last-page cache. The mask keeps
 * the store word-granular: footprintWords() and the checkpoint count
 * words ever written, zero-valued ones included, and unwritten words
 * read as 0. The checkpoint encoding is the sorted word-map encoding
 * of ckpt::Ar (DESIGN.md §7).
 */

#ifndef EMC_MEM_FUNCTIONAL_MEMORY_HH
#define EMC_MEM_FUNCTIONAL_MEMORY_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/serial.hh"
#include "common/types.hh"

namespace emc
{

/**
 * Word-granular paged memory. Addresses are 8-byte aligned internally
 * (the generated programs only do aligned 64-bit accesses).
 */
class FunctionalMemory
{
  public:
    /** Read the 64-bit word at @p addr (zero if never written). */
    std::uint64_t
    read(Addr addr) const
    {
        const Addr w = wordIndex(addr);
        const Page *p = findPage(w >> kPageWordsShift);
        return p == nullptr ? 0 : p->words[w & kWordMask];
    }

    /** Write the 64-bit word at @p addr. */
    void
    write(Addr addr, std::uint64_t value)
    {
        const Addr w = wordIndex(addr);
        Page &p = touchPage(w >> kPageWordsShift);
        const unsigned i = static_cast<unsigned>(w & kWordMask);
        std::uint64_t &mask = p.written[i >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (i & 63);
        if ((mask & bit) == 0) {
            mask |= bit;
            ++footprint_;
        }
        p.words[i] = value;
    }

    /** Number of distinct words ever written. */
    std::size_t footprintWords() const { return footprint_; }

    /**
     * Checkpoint as the word count, then (word index, value) pairs in
     * ascending word order — the bytes ckpt::Ar writes for an
     * unordered_map<Addr, uint64_t>. Loading rejects keys that are not
     * strictly ascending.
     */
    template <class A>
    void
    ser(A &ar)
    {
        std::uint64_t n = footprint_;
        ar.io(n);
        if (ar.saving()) {
            // Page order in pages_ is unobservable; sorting it in place
            // gives the ascending word order the encoding needs.
            std::sort(pages_.begin(), pages_.end(),
                      [](const auto &a, const auto &b) {
                          return a->number < b->number;
                      });
            for (const auto &p : pages_) {
                for (unsigned m = 0; m < p->written.size(); ++m) {
                    for (std::uint64_t bits = p->written[m]; bits != 0;
                         bits &= bits - 1) {
                        const unsigned i =
                            m * 64 + static_cast<unsigned>(
                                         std::countr_zero(bits));
                        Addr key = (p->number << kPageWordsShift) | i;
                        ar.io(key);
                        ar.io(p->words[i]);
                    }
                }
            }
            return;
        }
        ar.checkCount(n, 16);
        pages_.clear();
        index_.clear();
        footprint_ = 0;
        last_number_ = kNoPage;
        Addr prev = 0;
        for (std::uint64_t k = 0; k < n; ++k) {
            Addr key = 0;
            std::uint64_t value = 0;
            ar.io(key);
            ar.io(value);
            if (key > kMaxWordIndex || (k != 0 && key <= prev)) {
                throw ckpt::Error(
                    "functional memory: word index "
                    + std::to_string(key) + " at entry "
                    + std::to_string(k)
                    + " is out of range or not above the previous "
                      "entry");
            }
            prev = key;
            write(key << 3, value);
        }
    }

  private:
    static constexpr unsigned kPageWordsShift = kPageShift - 3;
    static constexpr unsigned kPageWords = 1u << kPageWordsShift;
    static constexpr Addr kWordMask = kPageWords - 1;
    static constexpr Addr kMaxWordIndex = ~Addr{0} >> 3;
    /// No page number equals this: word indices have 61 bits.
    static constexpr Addr kNoPage = ~Addr{0};

    struct Page
    {
        std::array<std::uint64_t, kPageWords> words{};
        std::array<std::uint64_t, kPageWords / 64> written{};
        Addr number = 0;
    };

    static Addr
    wordIndex(Addr addr)
    {
        return addr >> 3;
    }

    const Page *
    findPage(Addr number) const
    {
        if (number != last_number_) {
            const auto it = index_.find(number);
            if (it == index_.end())
                return nullptr;
            last_number_ = number;
            last_page_ = it->second;
        }
        return last_page_;
    }

    Page &
    touchPage(Addr number)
    {
        if (number != last_number_) {
            Page *&slot = index_[number];
            if (slot == nullptr) {
                pages_.push_back(std::make_unique<Page>());
                slot = pages_.back().get();
                slot->number = number;
            }
            last_number_ = number;
            last_page_ = slot;
        }
        return *last_page_;
    }

    std::vector<std::unique_ptr<Page>> pages_;
    /// Page number -> its page in pages_.
    std::unordered_map<Addr, Page *> index_;
    std::size_t footprint_ = 0;
    // ckpt-skip: (lookup cache, rebuilt by the first access)
    mutable Addr last_number_ = kNoPage;
    // ckpt-skip: (lookup cache, rebuilt by the first access)
    mutable Page *last_page_ = nullptr;
};

} // namespace emc

#endif // EMC_MEM_FUNCTIONAL_MEMORY_HH
