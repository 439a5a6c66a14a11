// Fixture: unordered-iter resolves a member through the class whose
// method holds the loop. PageIndex and BlockIndex share the member
// name `index_`; only PageIndex's is unordered, so only its loop is
// flagged. PageIndex comes first: a name-only lookup would also flag
// BlockIndex's vector loop.

namespace fx
{

class PageIndex
{
    void dump();
    std::unordered_map<unsigned long, unsigned long> index_;
};

class BlockIndex
{
    void dump();
    std::vector<unsigned long> index_;
};

void PageIndex::dump()
{
    for (const auto &kv : index_)  // [expect: unordered-iter]
        (void)kv;
}

void BlockIndex::dump()
{
    for (unsigned long first_uop : index_)
        (void)first_uop;
}

} // namespace fx
