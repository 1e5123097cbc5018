#include "src/obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace oscar {
namespace obs {

namespace detail {
std::atomic<bool> g_tracingEnabled{false};
} // namespace detail

const char*
spanCategoryName(SpanCategory cat)
{
    switch (cat) {
    case SpanCategory::Engine:
        return "engine";
    case SpanCategory::Replay:
        return "replay";
    case SpanCategory::Cache:
        return "cache";
    case SpanCategory::Wire:
        return "wire";
    case SpanCategory::Store:
        return "store";
    case SpanCategory::Serve:
        return "serve";
    }
    return "unknown";
}

void
setTracing(bool enabled)
{
    detail::g_tracingEnabled.store(enabled, std::memory_order_relaxed);
}

bool
resolveTraceEnabled(bool fallback)
{
    const char* env = std::getenv("OSCAR_TRACE");
    if (!env)
        return fallback;
    const std::string value(env);
    if (value == "0")
        return false;
    if (value == "1")
        return true;
    throw std::runtime_error("OSCAR_TRACE: expected 0 or 1, got \"" +
                             value + "\"");
}

std::size_t
resolveTraceBufferKb()
{
    constexpr std::size_t kDefaultKb = 256;
    const char* env = std::getenv("OSCAR_TRACE_BUFFER_KB");
    if (!env)
        return kDefaultKb;
    const std::string value(env);
    std::size_t parsed = 0;
    bool ok = !value.empty() && value.size() <= 8;
    for (const char c : value) {
        if (c < '0' || c > '9') {
            ok = false;
            break;
        }
        parsed = parsed * 10 + static_cast<std::size_t>(c - '0');
    }
    if (!ok || parsed < 16 || parsed > 65536)
        throw std::runtime_error(
            "OSCAR_TRACE_BUFFER_KB: expected a per-thread span buffer "
            "size in KiB (16..65536), got \"" +
            value + "\"");
    return parsed;
}

namespace {

/** Per-thread ring capacity, fixed at first buffer creation. */
std::atomic<std::size_t> g_bufferKb{256};

void
atexitExportTrace()
{
    const char* path = std::getenv("OSCAR_TRACE_FILE");
    if (path && *path)
        exportChromeTraceFile(path);
}

} // namespace

void
applyEnv()
{
    static std::once_flag once;
    std::call_once(once, [] {
        // Resolve both before applying either: a malformed value
        // must not leave tracing half-configured.
        const bool trace = resolveTraceEnabled();
        const std::size_t kb = resolveTraceBufferKb();
        g_bufferKb.store(kb, std::memory_order_relaxed);
        if (trace)
            setTracing(true);
        const char* file = std::getenv("OSCAR_TRACE_FILE");
        if (file && *file)
            std::atexit(atexitExportTrace);
    });
}

// ---------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------

/**
 * One 64-byte slot: a seqlock word plus the span payload. The owning
 * thread is the only writer; it bumps seq to odd, stores the payload
 * words, and bumps seq to even, every store a release. A collector
 * acquires seq, copies the payload with acquire loads, and re-checks
 * seq: any change or odd value discards the copy, so a torn read can
 * be *detected* but never *returned*. The payload's release stores
 * and acquire loads carry the ordering: if the collector reads any
 * payload word from a newer write, the re-check sees that write's odd
 * seq. Relaxed payload stores could move ahead of the odd seq on ARM
 * or POWER. On x86 both orders are plain moves, and there is no
 * fence, which ThreadSanitizer cannot model.
 */
struct alignas(64) Slot
{
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> t0{0};
    std::atomic<std::uint64_t> dur{0};
    /** category in the low byte. */
    std::atomic<std::uint64_t> meta{0};
    /** kSpanNameChars+1 name bytes as two LE words. */
    std::atomic<std::uint64_t> name0{0};
    std::atomic<std::uint64_t> name1{0};
    std::atomic<std::uint64_t> arg0{0};
    std::atomic<std::uint64_t> arg1{0};
};

static_assert(sizeof(Slot) == 64, "one cache line per span slot");

struct Tracer::ThreadBuffer
{
    explicit ThreadBuffer(std::size_t slot_count, std::uint32_t tid_in)
        : slots(slot_count), tid(tid_in)
    {
    }

    std::vector<Slot> slots;
    /** Total spans ever recorded; slot index = head % slots.size(). */
    std::atomic<std::uint64_t> head{0};
    /** Collector-only drain cursor (drain() consumes up to here). */
    std::atomic<std::uint64_t> consumed{0};
    std::uint32_t tid = 0;
};

Tracer&
Tracer::global()
{
    static Tracer* instance = new Tracer(); // never destroyed: worker
                                            // threads may outlive exit
    return *instance;
}

Tracer::ThreadBuffer&
Tracer::localBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buffer;
    if (!buffer) {
        const std::size_t kb = g_bufferKb.load(std::memory_order_relaxed);
        const std::size_t count = std::max<std::size_t>(
            16, kb * 1024 / sizeof(Slot));
        std::lock_guard<std::mutex> lock(registryMutex_);
        buffer = std::make_shared<ThreadBuffer>(count, nextTid_++);
        buffers_.push_back(buffer);
    }
    return *buffer;
}

void
Tracer::record(SpanCategory cat, const char* name, std::uint64_t t0_ns,
               std::uint64_t t1_ns, std::uint64_t arg0,
               std::uint64_t arg1)
{
    if (!tracingEnabled())
        return;
    ThreadBuffer& buffer = localBuffer();

    char padded[kSpanNameChars + 1] = {0};
    for (std::size_t i = 0; i < kSpanNameChars && name[i]; ++i)
        padded[i] = name[i];
    std::uint64_t name_words[2];
    std::memcpy(name_words, padded, sizeof(name_words));

    const std::uint64_t index =
        buffer.head.load(std::memory_order_relaxed);
    Slot& slot = buffer.slots[index % buffer.slots.size()];

    const std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    slot.seq.store(seq + 1, std::memory_order_release); // odd: writing
    slot.t0.store(t0_ns, std::memory_order_release);
    slot.dur.store(t1_ns >= t0_ns ? t1_ns - t0_ns : 0,
                   std::memory_order_release);
    slot.meta.store(static_cast<std::uint64_t>(cat),
                    std::memory_order_release);
    slot.name0.store(name_words[0], std::memory_order_release);
    slot.name1.store(name_words[1], std::memory_order_release);
    slot.arg0.store(arg0, std::memory_order_release);
    slot.arg1.store(arg1, std::memory_order_release);
    slot.seq.store(seq + 2, std::memory_order_release); // even: stable
    buffer.head.store(index + 1, std::memory_order_release);
}

namespace {

/** Try to copy one slot; false when mid-write or overwritten. */
bool
readSlot(const Slot& slot, std::uint32_t tid, SpanRecord* out)
{
    const std::uint64_t seq_before =
        slot.seq.load(std::memory_order_acquire);
    if (seq_before & 1)
        return false;
    SpanRecord rec;
    rec.t0Ns = slot.t0.load(std::memory_order_acquire);
    rec.durNs = slot.dur.load(std::memory_order_acquire);
    const std::uint64_t meta = slot.meta.load(std::memory_order_acquire);
    std::uint64_t name_words[2];
    name_words[0] = slot.name0.load(std::memory_order_acquire);
    name_words[1] = slot.name1.load(std::memory_order_acquire);
    rec.arg0 = slot.arg0.load(std::memory_order_acquire);
    rec.arg1 = slot.arg1.load(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq_before)
        return false; // torn: the writer lapped us mid-copy
    rec.category = static_cast<SpanCategory>(meta & 0xFF);
    std::memcpy(rec.name, name_words, sizeof(name_words));
    rec.name[kSpanNameChars] = '\0';
    rec.pid = static_cast<std::int32_t>(::getpid());
    rec.tid = tid;
    *out = rec;
    return true;
}

} // namespace

std::vector<SpanRecord>
Tracer::collect() const
{
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard<std::mutex> lock(registryMutex_);
        buffers = buffers_;
    }
    std::vector<SpanRecord> spans;
    for (const auto& buffer : buffers) {
        const std::uint64_t head =
            buffer->head.load(std::memory_order_acquire);
        const std::uint64_t capacity = buffer->slots.size();
        const std::uint64_t first = head > capacity ? head - capacity : 0;
        for (std::uint64_t i = first; i < head; ++i) {
            SpanRecord rec;
            if (readSlot(buffer->slots[i % capacity], buffer->tid, &rec))
                spans.push_back(rec);
        }
    }
    return spans;
}

std::vector<SpanRecord>
Tracer::drain()
{
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard<std::mutex> lock(registryMutex_);
        buffers = buffers_;
    }
    std::vector<SpanRecord> spans;
    for (const auto& buffer : buffers) {
        const std::uint64_t head =
            buffer->head.load(std::memory_order_acquire);
        const std::uint64_t capacity = buffer->slots.size();
        const std::uint64_t consumed =
            buffer->consumed.load(std::memory_order_relaxed);
        const std::uint64_t first =
            std::max(consumed, head > capacity ? head - capacity : 0);
        for (std::uint64_t i = first; i < head; ++i) {
            SpanRecord rec;
            if (readSlot(buffer->slots[i % capacity], buffer->tid, &rec))
                spans.push_back(rec);
        }
        buffer->consumed.store(head, std::memory_order_relaxed);
    }
    return spans;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(registryMutex_);
    for (const auto& buffer : buffers_) {
        const std::uint64_t head =
            buffer->head.load(std::memory_order_acquire);
        buffer->consumed.store(head, std::memory_order_relaxed);
    }
}

std::uint64_t
Tracer::droppedSpans() const
{
    std::lock_guard<std::mutex> lock(registryMutex_);
    std::uint64_t dropped = 0;
    for (const auto& buffer : buffers_) {
        const std::uint64_t head =
            buffer->head.load(std::memory_order_acquire);
        const std::uint64_t capacity = buffer->slots.size();
        if (head > capacity)
            dropped += head - capacity;
    }
    return dropped;
}

// ---------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------

namespace {

void
appendJsonEscaped(std::string* out, const char* s)
{
    for (; *s; ++s) {
        const char c = *s;
        if (c == '"' || c == '\\') {
            out->push_back('\\');
            out->push_back(c);
        } else if (static_cast<unsigned char>(c) >= 0x20) {
            out->push_back(c);
        }
    }
}

void
appendEvent(std::string* out, const char* phase, const SpanRecord& span,
            std::uint64_t ts_ns, bool with_args)
{
    char buf[160];
    out->append("    {\"name\": \"");
    appendJsonEscaped(out, span.name);
    std::snprintf(buf, sizeof(buf),
                  "\", \"cat\": \"%s\", \"ph\": \"%s\", "
                  "\"ts\": %.3f, \"pid\": %" PRId32 ", \"tid\": %" PRIu32,
                  spanCategoryName(span.category), phase,
                  static_cast<double>(ts_ns) / 1000.0, span.pid,
                  span.tid);
    out->append(buf);
    if (with_args) {
        std::snprintf(buf, sizeof(buf),
                      ", \"args\": {\"arg0\": %" PRIu64
                      ", \"arg1\": %" PRIu64 "}",
                      span.arg0, span.arg1);
        out->append(buf);
    }
    out->append("}");
}

} // namespace

std::string
exportChromeTrace(const std::vector<SpanRecord>& spans,
                  const std::map<std::int32_t, std::string>& process_names)
{
    // Sort by begin time so B events are emitted in order and nested
    // spans on one tid open outermost-first (what the viewer expects).
    std::vector<const SpanRecord*> order;
    order.reserve(spans.size());
    for (const SpanRecord& span : spans)
        order.push_back(&span);
    std::stable_sort(order.begin(), order.end(),
                     [](const SpanRecord* a, const SpanRecord* b) {
                         return a->t0Ns < b->t0Ns;
                     });

    std::map<std::int32_t, std::string> names = process_names;
    for (const SpanRecord& span : spans)
        if (!names.count(span.pid))
            names[span.pid] = "process " + std::to_string(span.pid);

    std::string out = "{\"traceEvents\": [\n";
    bool first = true;
    char buf[160];
    for (const auto& [pid, name] : names) {
        if (!first)
            out.append(",\n");
        first = false;
        out.append("    {\"name\": \"process_name\", \"ph\": \"M\", ");
        std::snprintf(buf, sizeof(buf), "\"pid\": %" PRId32
                      ", \"tid\": 0, \"args\": {\"name\": \"", pid);
        out.append(buf);
        appendJsonEscaped(&out, name.c_str());
        out.append("\"}}");
    }
    for (const SpanRecord* span : order) {
        if (!first)
            out.append(",\n");
        first = false;
        appendEvent(&out, "B", *span, span->t0Ns, /*with_args=*/true);
        out.append(",\n");
        appendEvent(&out, "E", *span, span->t0Ns + span->durNs,
                    /*with_args=*/false);
    }
    out.append("\n]}\n");
    return out;
}

bool
exportChromeTraceFile(const std::string& path)
{
    const std::string json =
        exportChromeTrace(Tracer::global().collect());
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "obs: cannot write trace file %s\n",
                     path.c_str());
        return false;
    }
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    std::fclose(f);
    if (!ok)
        std::fprintf(stderr, "obs: short write on trace file %s\n",
                     path.c_str());
    return ok;
}

} // namespace obs
} // namespace oscar
