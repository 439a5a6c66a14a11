#include "trace/writer.hh"

#include <cstring>

#include "ckpt/ckpt.hh"

namespace emc::trace
{

namespace
{

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

// resize + memcpy, not insert(): GCC 12 misreads the inlined range
// insert into a fresh buffer as an overflow (-Wstringop-overflow).
void
putBytes(std::vector<std::uint8_t> &out, const void *p, std::size_t n)
{
    const std::size_t at = out.size();
    out.resize(at + n);
    if (n != 0)
        std::memcpy(out.data() + at, p, n);
}

void
putString(std::vector<std::uint8_t> &out, const std::string &s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    putBytes(out, s.data(), s.size());
}

} // namespace

Writer::Writer(const std::string &path, Provenance prov, bool compress,
               std::uint32_t block_uops)
    : path_(path),
      compress_(compress && ckpt::compressionAvailable()),
      block_uops_(block_uops == 0 ? kDefaultBlockUops : block_uops)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        throw Error("cannot open trace file for writing: " + path, 0);

    std::vector<std::uint8_t> h;
    putBytes(h, kMagic, 4);
    putU32(h, kVersion);
    putU64(h, 0);  // header_bytes, patched below once the size is known
    putU64(h, 0);  // uop_count      (patched in close)
    putU64(h, 0);  // block_count    (patched in close)
    putU64(h, 0);  // index_offset   (patched in close)
    putU64(h, prov.config_hash);
    putU64(h, prov.seed);
    putU32(h, block_uops_);
    putU32(h, compress_ ? kFlagDeflate : 0);
    putString(h, prov.workload);
    putString(h, prov.meta);
    const std::uint64_t hbytes = h.size();
    for (unsigned i = 0; i < 8; ++i)
        h[8 + i] = static_cast<std::uint8_t>(hbytes >> (8 * i));
    writeRaw(h.data(), h.size());

    codec_.saveState(block_entry_state_);
}

Writer::~Writer()
{
    // A destructor must not throw; an explicit close() surfaces
    // errors, abandoning an open writer leaves an unfinalized file
    // (index_offset 0) that readers reject with a typed error.
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

void
Writer::writeRaw(const void *bytes, std::size_t n)
{
    if (std::fwrite(bytes, 1, n, file_) != n) {
        const std::uint64_t at = offset_;
        std::fclose(file_);
        file_ = nullptr;
        throw Error("short write to trace file " + path_, at);
    }
    offset_ += n;
}

void
Writer::append(const DynUop &d)
{
    if (!file_)
        throw Error("append to a closed trace writer: " + path_,
                    offset_);
    codec_.encode(d, block_);
    ++block_count_uops_;
    ++count_;
    if (block_count_uops_ >= block_uops_)
        flushBlock();
}

void
Writer::flushBlock()
{
    if (block_count_uops_ == 0)
        return;

    // Raw payload: the codec entry state, then the encoded records.
    std::vector<std::uint8_t> raw;
    raw.reserve(8 * kCodecStateWords + block_.size());
    for (const std::uint64_t w : block_entry_state_)
        putU64(raw, w);
    raw.insert(raw.end(), block_.begin(), block_.end());

    std::vector<std::uint8_t> stored;
    std::uint8_t codec = kCodecRaw;
    if (compress_) {
        stored = ckpt::deflateBytes(raw.data(), raw.size());
        if (stored.size() < raw.size())
            codec = kCodecDeflate;
    }
    const std::vector<std::uint8_t> &body =
        codec == kCodecDeflate ? stored : raw;

    index_.push_back({offset_, count_ - block_count_uops_});

    std::vector<std::uint8_t> bh;
    putU32(bh, block_count_uops_);
    putU32(bh, static_cast<std::uint32_t>(raw.size()));
    putU32(bh, static_cast<std::uint32_t>(body.size()));
    bh.push_back(codec);
    putU64(bh, ckpt::fnv1a(raw.data(), raw.size()));
    writeRaw(bh.data(), bh.size());
    writeRaw(body.data(), body.size());

    block_.clear();
    block_count_uops_ = 0;
    codec_.saveState(block_entry_state_);
}

void
Writer::close()
{
    if (!file_)
        return;
    flushBlock();

    const std::uint64_t index_offset = offset_;
    std::vector<std::uint8_t> idx;
    putBytes(idx, kIndexMagic, 8);
    for (const IndexEntry &e : index_) {
        putU64(idx, e.offset);
        putU64(idx, e.first_uop);
    }
    writeRaw(idx.data(), idx.size());

    // Back-patch uop_count / block_count / index_offset (fixed
    // offsets 16/24/32, format.hh).
    std::vector<std::uint8_t> patch;
    putU64(patch, count_);
    putU64(patch, index_.size());
    putU64(patch, index_offset);
    if (std::fseek(file_, 16, SEEK_SET) != 0
        || std::fwrite(patch.data(), 1, patch.size(), file_)
               != patch.size()) {
        std::fclose(file_);
        file_ = nullptr;
        throw Error("header back-patch failed for " + path_, 16);
    }
    if (std::fclose(file_) != 0) {
        file_ = nullptr;
        throw Error("close failed for " + path_, offset_);
    }
    file_ = nullptr;
}

} // namespace emc::trace
