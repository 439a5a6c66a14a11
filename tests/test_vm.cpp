/**
 * @file
 * Unit tests for the virtual-memory substrate: page table, core TLB
 * and the EMC's per-core circular-buffer TLB (Section 4.1.4).
 */

#include <gtest/gtest.h>

#include <list>
#include <set>
#include <vector>

#include "vm/page_table.hh"
#include "vm/tlb.hh"

namespace emc
{
namespace
{

TEST(PageTableTest, TranslationStable)
{
    PageTable pt(0, 1);
    const Addr p1 = pt.translate(0x12345678);
    const Addr p2 = pt.translate(0x12345678);
    EXPECT_EQ(p1, p2);
}

TEST(PageTableTest, OffsetPreserved)
{
    PageTable pt(0, 1);
    const Addr p = pt.translate(0x10000 + 0xabc);
    EXPECT_EQ(p & (kPageBytes - 1), 0xabcu);
}

TEST(PageTableTest, DistinctPagesDistinctFrames)
{
    PageTable pt(0, 1);
    std::set<Addr> frames;
    for (Addr v = 0; v < 64; ++v)
        frames.insert(pageNum(pt.translate(v * kPageBytes)));
    EXPECT_EQ(frames.size(), 64u);
}

TEST(PageTableTest, CoreSpacesDisjoint)
{
    PageTable a(0, 1), b(1, 1);
    const Addr pa = a.translate(0x1000);
    const Addr pb = b.translate(0x1000);
    EXPECT_NE(pageNum(pa), pageNum(pb));
}

TEST(PageTableTest, LookupPopulates)
{
    PageTable pt(2, 7);
    EXPECT_EQ(pt.mappedPages(), 0u);
    const Pte &pte = pt.lookup(5);
    EXPECT_TRUE(pte.valid);
    EXPECT_EQ(pte.vpage, 5u);
    EXPECT_EQ(pt.mappedPages(), 1u);
}

TEST(TlbTest, HitAfterMiss)
{
    PageTable pt(0, 1);
    Tlb tlb(4, 30);
    Cycle extra = 0;
    tlb.translate(pt, 0x5000, extra);
    EXPECT_EQ(extra, 30u);
    tlb.translate(pt, 0x5008, extra);
    EXPECT_EQ(extra, 0u);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(TlbTest, LruEviction)
{
    PageTable pt(0, 1);
    Tlb tlb(2, 30);
    Cycle extra;
    tlb.translate(pt, 0x1000, extra);  // A
    tlb.translate(pt, 0x2000, extra);  // B
    tlb.translate(pt, 0x1000, extra);  // touch A
    EXPECT_EQ(extra, 0u);
    tlb.translate(pt, 0x3000, extra);  // evicts B
    tlb.translate(pt, 0x1000, extra);  // A still resident
    EXPECT_EQ(extra, 0u);
    tlb.translate(pt, 0x2000, extra);  // B was evicted
    EXPECT_EQ(extra, 30u);
}

TEST(EmcTlbTest, InsertAndLookup)
{
    EmcTlb tlb(4);
    Pte pte;
    pte.vpage = 7;
    pte.pframe = 1234;
    pte.valid = true;
    tlb.insert(pte);
    Addr frame = 0;
    EXPECT_TRUE(tlb.lookup(7, frame));
    EXPECT_EQ(frame, 1234u);
    EXPECT_FALSE(tlb.lookup(8, frame));
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(EmcTlbTest, CircularReplacement)
{
    EmcTlb tlb(2);
    for (Addr v = 0; v < 3; ++v) {
        Pte p;
        p.vpage = v;
        p.pframe = 100 + v;
        p.valid = true;
        tlb.insert(p);
    }
    Addr f;
    EXPECT_FALSE(tlb.lookup(0, f));  // overwritten by vpage 2
    EXPECT_TRUE(tlb.lookup(1, f));
    EXPECT_TRUE(tlb.lookup(2, f));
}

TEST(EmcTlbTest, ResidenceBitSemantics)
{
    // resident() is the core-side check and must not perturb stats.
    EmcTlb tlb(4);
    Pte p;
    p.vpage = 3;
    p.pframe = 9;
    p.valid = true;
    tlb.insert(p);
    EXPECT_TRUE(tlb.resident(3));
    EXPECT_FALSE(tlb.resident(4));
    EXPECT_EQ(tlb.hits(), 0u);
    EXPECT_EQ(tlb.misses(), 0u);
}

TEST(EmcTlbTest, ShootdownInvalidates)
{
    EmcTlb tlb(4);
    Pte p;
    p.vpage = 11;
    p.pframe = 42;
    p.valid = true;
    tlb.insert(p);
    ASSERT_TRUE(tlb.resident(11));
    tlb.shootdown(11);
    EXPECT_FALSE(tlb.resident(11));
    Addr f;
    EXPECT_FALSE(tlb.lookup(11, f));
}

TEST(EmcTlbTest, FlushClearsAll)
{
    EmcTlb tlb(4);
    for (Addr v = 0; v < 4; ++v) {
        Pte p;
        p.vpage = v;
        p.pframe = v;
        p.valid = true;
        tlb.insert(p);
    }
    tlb.flush();
    for (Addr v = 0; v < 4; ++v)
        EXPECT_FALSE(tlb.resident(v));
}

/**
 * replayHits(pages, n) must leave the TLB exactly as n hitting
 * translate() calls whose last-occurrence page order is @p pages. The
 * reference makes those calls: each page once in order, then the
 * remaining hits on the last page (which is then already MRU).
 */
void
expectReplayMatchesTranslate(const std::vector<Addr> &warm,
                             const std::vector<Addr> &pages,
                             std::uint64_t accesses)
{
    PageTable pt(0, 1);
    Tlb fast(8, 30);
    Tlb ref(8, 30);
    Cycle extra = 0;
    for (Addr vp : warm) {
        fast.translate(pt, vp << kPageShift, extra);
        ref.translate(pt, vp << kPageShift, extra);
    }
    ASSERT_TRUE(fast.replayHits(pages, accesses));
    for (Addr vp : pages) {
        ref.translate(pt, vp << kPageShift, extra);
        ASSERT_EQ(extra, 0u) << "reference call missed";
    }
    for (std::uint64_t i = pages.size(); i < accesses; ++i)
        ref.translate(pt, pages.back() << kPageShift, extra);
    EXPECT_EQ(fast.residentPages(), ref.residentPages());
    EXPECT_EQ(fast.hits(), ref.hits());
    EXPECT_EQ(fast.misses(), ref.misses());
}

TEST(TlbReplayTest, PagesAlreadyAtMruInOrder)
{
    // LRU stack after warming is 4 3 2 1: pages {2, 3, 4} replayed in
    // that order leave it unchanged (the early-return path).
    expectReplayMatchesTranslate({1, 2, 3, 4}, {2, 3, 4}, 7);
    expectReplayMatchesTranslate({1, 2, 3, 4}, {3, 4}, 4);
    expectReplayMatchesTranslate({1, 2, 3, 4}, {4}, 3);
}

TEST(TlbReplayTest, PagesOutOfOrder)
{
    // Same pages, but not in MRU order: the stack must reorder.
    expectReplayMatchesTranslate({1, 2, 3, 4}, {4, 3, 2}, 5);
    expectReplayMatchesTranslate({1, 2, 3, 4}, {1, 2}, 2);
    expectReplayMatchesTranslate({1, 2, 3, 4}, {1, 4}, 2);
}

TEST(TlbReplayTest, NonResidentPageChangesNothing)
{
    PageTable pt(0, 1);
    Tlb tlb(8, 30);
    Cycle extra = 0;
    for (Addr vp : {1, 2, 3})
        tlb.translate(pt, vp << kPageShift, extra);
    const std::list<Addr> before = tlb.residentPages();
    const std::uint64_t hits = tlb.hits();
    EXPECT_FALSE(tlb.replayHits({2, 3, 9}, 3));
    EXPECT_FALSE(tlb.replayHits({9}, 1));
    EXPECT_EQ(tlb.residentPages(), before);
    EXPECT_EQ(tlb.hits(), hits);
}

} // namespace
} // namespace emc
