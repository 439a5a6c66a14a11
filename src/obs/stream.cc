#include "obs/stream.hh"

#include <cinttypes>

namespace emc::obs
{

void
writeStatsObject(std::FILE *out, const StatDump &d, int digits)
{
    std::fputc('{', out);
    bool first = true;
    for (const auto &[name, value] : d.all()) {
        std::fprintf(out, "%s\"%s\":%.*g", first ? "" : ",",
                     name.c_str(), digits, value);
        first = false;
    }
    std::fputc('}', out);
}

StatStreamer::StatStreamer(const std::string &path, Cycle interval)
    : interval_(interval < 1 ? 1 : interval)
{
    next_ = interval_;
    out_ = std::fopen(path.c_str(), "w");
}

StatStreamer::~StatStreamer()
{
    if (out_)
        std::fclose(out_);
    out_ = nullptr;
}

void
StatStreamer::writeLine(Cycle now, const StatDump &d)
{
    std::fprintf(out_, "{\"cycle\":%" PRIu64 ",\"stats\":",
                 static_cast<std::uint64_t>(now));
    writeStatsObject(out_, d, 9);
    std::fputs("}\n", out_);
    ++lines_;
}

void
StatStreamer::snapshot(Cycle now, const StatDump &d)
{
    if (!out_ || now < next_)
        return;
    writeLine(now, d);
    // The System ticks every cycle and no restore moves the clock
    // while a streamer is attached, so `now` is exactly next_.
    next_ += interval_;
}

void
StatStreamer::finish(Cycle now, const StatDump &d)
{
    if (!out_)
        return;
    writeLine(now, d);
    std::fclose(out_);
    out_ = nullptr;
}

} // namespace emc::obs
