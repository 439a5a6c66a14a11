// Fixture: stat-dup / stat-registry near misses: distinct literal
// keys, one dynamic prefix built per index, and a get() of a key
// put() once. Nothing here may be flagged.

namespace fx
{

inline void registerStatsGood(StatDump &d, int lanes)
{
    d.put("fixture.good_hits", 1);
    d.put("fixture.good_misses", 2);
    for (int i = 0; i < lanes; ++i)
        d.put("fixture.good_lane." + std::to_string(i), i);
    (void)d.get("fixture.good_hits");
}

} // namespace fx
