#include "harness/capture.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/atomic_file.hh"
#include "sim/logging.hh"

namespace grp
{

namespace
{

/** Table 0 of kind-1 containers: the one record type. */
constexpr const char *kOpBlockName = "opBlock";
constexpr uint8_t kOpBlockTag = 0;

/** Same large stream buffer the Tracer uses: one memcpy per record,
 *  a filesystem write every few thousand. */
constexpr size_t kStreamBufBytes = 256 * 1024;

} // namespace

CaptureTraceSource::CaptureTraceSource(TraceSource &inner,
                                       const std::string &path,
                                       const std::string &workload,
                                       uint64_t seed)
    : inner_(inner), publishPath_(path)
{
    const std::string tmp = path + ".tmp";
    out_ = std::fopen(tmp.c_str(), "wb");
    fatal_if(!out_, "cannot open capture file '%s'", tmp.c_str());
    iobuf_ = std::make_unique<char[]>(kStreamBufBytes);
    std::setvbuf(out_, iobuf_.get(), _IOFBF, kStreamBufBytes);
    writer_ = std::make_unique<obs::bintrace::Writer>(
        out_, obs::bintrace::StreamKind::Access,
        std::vector<std::vector<std::string>>{{kOpBlockName}},
        std::vector<std::pair<std::string, std::string>>{
            {"workload", workload},
            {"seed", std::to_string(seed)},
        });
}

CaptureTraceSource::~CaptureTraceSource()
{
    close();
}

bool
CaptureTraceSource::next(TraceOp &op)
{
    if (!inner_.next(op))
        return false;
    append(&op, 1);
    return true;
}

size_t
CaptureTraceSource::nextBatch(const TraceOp **ops)
{
    const size_t n = inner_.nextBatch(ops);
    if (n)
        append(*ops, n);
    return n;
}

void
CaptureTraceSource::append(const TraceOp *ops, size_t n)
{
    while (n) {
        const size_t take = std::min(n, kOpBlockOps - block_.ops());
        block_.add(ops, take);
        ops += take;
        n -= take;
        ops_ += take;
        if (block_.full())
            writeBlock();
    }
}

void
CaptureTraceSource::writeBlock()
{
    if (!block_.ops())
        return;
    block_.finish();
    const std::vector<uint64_t> &words = block_.words();
    uint8_t head[2 * 10];
    size_t n = obs::bintrace::putVarint(head, block_.ops());
    n += obs::bintrace::putVarint(head + n, words.size());
    payload_.assign(head, head + n);
    // Host byte order, as the container writes its u64 trailer.
    payload_.resize(n + words.size() * sizeof(uint64_t));
    std::memcpy(payload_.data() + n, words.data(),
                words.size() * sizeof(uint64_t));
    writer_->rawRecord(kOpBlockTag, payload_.data(), payload_.size(),
                       ops_);
    block_.clear();
}

void
CaptureTraceSource::close()
{
    if (!out_)
        return;
    writeBlock();
    writer_->finalize();
    writer_.reset();
    std::fclose(out_);
    out_ = nullptr;
    obs::publishTempFile(publishPath_ + ".tmp", publishPath_,
                         "capture");
}

ReplayTraceSource::ReplayTraceSource(const std::string &path)
    : path_(path)
{
    std::ifstream is(path, std::ios::binary);
    fatal_if(!is, "cannot open capture file '%s'", path.c_str());
    std::ostringstream buf;
    buf << is.rdbuf();
    data_ = buf.str();

    obs::bintrace::Container container;
    std::string error;
    fatal_if(
        !obs::bintrace::parseContainer(data_, container, &error),
        "'%s' is not a .grpbin capture: %s", path.c_str(),
        error.c_str());
    fatal_if(container.kind != obs::bintrace::StreamKind::Access,
             "'%s' is a lifecycle trace, not an access capture "
             "(inspect it with grptrace; --replay needs a --capture "
             "output)",
             path.c_str());
    fatal_if(!container.finalized,
             "capture '%s' is truncated or unfinalized (the recording "
             "run was killed mid-capture, or this is a stale .tmp "
             "file); refusing to replay a damaged stream",
             path.c_str());

    // Captures hold op-codec blocks; an older build's per-op records
    // (computeRun/load/store/indirectPrefetch tags) cannot be read.
    if (container.tables[0] !=
        std::vector<std::string>{kOpBlockName}) {
        std::string tags;
        for (const std::string &tag : container.tables[0])
            tags += (tags.empty() ? "" : ", ") + tag;
        fatal("capture '%s' has record tags [%s], not [%s]: it was "
              "written in another access-capture format (older "
              "captures stored one record per op; captures now store "
              "op-codec blocks); re-record it with --capture",
              path.c_str(), tags.c_str(), kOpBlockName);
    }

    const auto workload = container.metaValue("workload");
    const auto seed = container.metaValue("seed");
    fatal_if(!workload || !seed,
             "capture '%s' lacks workload/seed meta", path.c_str());
    workload_ = *workload;
    seed_ = std::strtoull(seed->c_str(), nullptr, 10);
    totalOps_ = container.finalKey;

    const uint8_t *base =
        reinterpret_cast<const uint8_t *>(data_.data());
    cursor_ = base + container.bodyOffset;
    end_ = base + container.footerOffset;
}

size_t
ReplayTraceSource::decodeNext(TraceOp *out)
{
    const auto after = [this] { return (unsigned long long)decoded_; };
    while (cursor_ < end_) {
        const uint8_t tag = *cursor_++;
        if (tag == obs::bintrace::kCheckpointTag) {
            uint64_t key, records, warm, counts;
            bool ok = obs::bintrace::readVarint(cursor_, end_, key) &&
                      obs::bintrace::readVarint(cursor_, end_,
                                                records) &&
                      obs::bintrace::readVarint(cursor_, end_, warm) &&
                      obs::bintrace::readVarint(cursor_, end_, counts);
            for (uint64_t i = 0; ok && i < counts; ++i) {
                uint64_t count;
                ok = obs::bintrace::readVarint(cursor_, end_, count);
            }
            fatal_if(!ok,
                     "capture '%s' corrupt at checkpoint after op %llu",
                     path_.c_str(), after());
            continue;
        }
        fatal_if(tag != kOpBlockTag,
                 "capture '%s' has unknown record tag %u after op %llu",
                 path_.c_str(), (unsigned)tag, after());
        uint64_t n_ops = 0, n_words = 0;
        const bool ok =
            obs::bintrace::readVarint(cursor_, end_, n_ops) &&
            obs::bintrace::readVarint(cursor_, end_, n_words);
        fatal_if(!ok || n_ops == 0 || n_ops > kOpBlockOps ||
                     n_words == 0 ||
                     n_words > static_cast<uint64_t>(end_ - cursor_) / 8,
                 "capture '%s' has a malformed op-block header after "
                 "op %llu (%llu ops in %llu words)",
                 path_.c_str(), after(), (unsigned long long)n_ops,
                 (unsigned long long)n_words);
        words_.resize(n_words);
        std::memcpy(words_.data(), cursor_, n_words * sizeof(uint64_t));
        cursor_ += n_words * sizeof(uint64_t);
        const char *error =
            decodeOpBlock(words_.data(), words_.size(), n_ops, out);
        fatal_if(error,
                 "capture '%s' is corrupt in the op block after op "
                 "%llu: %s",
                 path_.c_str(), after(), error);
        decoded_ += n_ops;
        return n_ops;
    }
    fatal_if(decoded_ != totalOps_,
             "capture '%s' holds %llu ops but its footer records %llu",
             path_.c_str(), after(), (unsigned long long)totalOps_);
    return 0;
}

} // namespace grp
