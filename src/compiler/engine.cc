#include "compiler/engine.h"

#include <algorithm>
#include <charconv>
#include <initializer_list>

#include "codegen/cuda_emitter.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vqllm::compiler {

namespace {

/** FNV-1a over a byte range (content hash for histograms). */
std::uint64_t
fnv1a(const void *data, std::size_t bytes, std::uint64_t seed)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** Append an unsigned integer in `base` to a key. */
void
appendNum(std::string &key, std::uint64_t v, int base = 10)
{
    char buf[20];
    auto res = std::to_chars(buf, buf + sizeof(buf), v, base);
    key.append(buf, res.ptr);
}

/** Append decimal `values` separated by `sep`. */
void
appendJoined(std::string &key, std::initializer_list<std::uint64_t> values,
             char sep)
{
    bool first = true;
    for (std::uint64_t v : values) {
        if (!first)
            key += sep;
        first = false;
        appendNum(key, v);
    }
}

} // namespace

std::uint64_t
histogramDigest(const vq::AccessHistogram &hist)
{
    std::uint64_t h =
        fnv1a(hist.counts.data(),
              hist.counts.size() * sizeof(std::uint64_t),
              14695981039346656037ull);
    // 0 is the "not precomputed" sentinel of KernelRequest.
    return h == 0 ? 1 : h;
}

// ---------------------------------------------------------------------
// KernelRequest factories

KernelRequest
KernelRequest::gemmOp(const engine::GemmShape &shape,
                      const vq::VQConfig &config, engine::OptLevel level,
                      const vq::AccessHistogram *histogram)
{
    KernelRequest r;
    r.kind = engine::OpKind::GeMM;
    r.gemm = shape;
    r.config = config;
    r.level = level;
    r.histogram = histogram;
    return r;
}

KernelRequest
KernelRequest::gemvOp(const engine::GemmShape &shape,
                      const vq::VQConfig &config, engine::OptLevel level,
                      const vq::AccessHistogram *histogram)
{
    KernelRequest r = gemmOp(shape, config, level, histogram);
    r.kind = engine::OpKind::GeMV;
    return r;
}

KernelRequest
KernelRequest::attentionOp(const engine::AttnShape &shape,
                           const vq::VQConfig &config,
                           engine::OptLevel level,
                           const vq::AccessHistogram *histogram)
{
    KernelRequest r;
    r.kind = engine::OpKind::AttentionDecode;
    r.attn = shape;
    r.config = config;
    r.level = level;
    r.histogram = histogram;
    return r;
}

// ---------------------------------------------------------------------
// CompiledKernel

const std::string &
CompiledKernel::source() const
{
    std::call_once(source_once_, [this] {
        source_ = codegen::emitCudaKernel(plan_);
    });
    return source_;
}

kernels::FunctionalResult
CompiledKernel::runGemv(const vq::QuantizedTensor &qt,
                        const Tensor<float> &x) const
{
    vqllm_assert(plan_.kind == engine::OpKind::GeMV,
                 "runGemv on a ", engine::opKindName(plan_.kind),
                 " artifact");
    return kernels::runVqGemv(plan_, qt, x);
}

kernels::FunctionalResult
CompiledKernel::runGemm(const vq::QuantizedTensor &qt,
                        const Tensor<float> &x) const
{
    vqllm_assert(plan_.kind == engine::OpKind::GeMM,
                 "runGemm on a ", engine::opKindName(plan_.kind),
                 " artifact");
    return kernels::runVqGemm(plan_, qt, x);
}

kernels::FunctionalResult
CompiledKernel::runAttention(const vq::QuantizedTensor &qt_k,
                             const vq::QuantizedTensor &qt_v,
                             const Tensor<float> &q) const
{
    vqllm_assert(plan_.kind == engine::OpKind::AttentionDecode,
                 "runAttention on a ", engine::opKindName(plan_.kind),
                 " artifact");
    return kernels::runVqAttention(plan_, qt_k, qt_v, q);
}

// ---------------------------------------------------------------------
// Engine

Engine::Engine(const gpusim::GpuSpec &spec, const EngineOptions &options)
    : spec_(spec), options_(options)
{
}

std::string
Engine::cacheKey(const KernelRequest &request) const
{
    // Plain appends into one reserved buffer: the key is built on every
    // lookup, hits included.
    const auto &cfg = request.config;
    std::string key;
    key.reserve(128 + cfg.name.size());
    key += "op=";
    key += engine::opKindName(request.kind);
    key += "|shape=";
    if (request.kind == engine::OpKind::AttentionDecode) {
        // kvHeads() folds the kv_heads==0 MHA default onto its
        // explicit spelling so the two cannot produce distinct keys.
        const auto &a = request.attn;
        appendJoined(key,
                     {a.batch, a.heads, a.seq_len, a.head_dim, a.kvHeads()},
                     ',');
    } else {
        const auto &g = request.gemm;
        appendJoined(key, {g.m, g.n, g.k}, ',');
    }
    key += "|cfg=";
    key += cfg.name;
    key += '/';
    appendJoined(key,
                 {cfg.vector_size, cfg.num_entries, cfg.residuals,
                  static_cast<std::uint64_t>(cfg.scope), cfg.lattice,
                  cfg.lattice_base_entries},
                 '/');
    key += "|lvl=";
    key += engine::optLevelName(request.level);
    // Histogram: presence plus a hex content digest (the request's
    // precomputed digest when supplied).
    key += "|hist=";
    if (request.histogram == nullptr) {
        key += "none";
    } else {
        appendNum(key, request.histogram->counts.size());
        key += ':';
        appendNum(key,
                  request.histogram_digest != 0
                      ? request.histogram_digest
                      : histogramDigest(*request.histogram),
                  16);
    }
    return key;
}

std::shared_ptr<const CompiledKernel>
Engine::compileUncached(const KernelRequest &request)
{
    engine::PlanInputs in;
    in.spec = &spec_;
    in.histogram = request.histogram;

    auto artifact = std::shared_ptr<CompiledKernel>(new CompiledKernel);
    if (request.kind == engine::OpKind::AttentionDecode) {
        artifact->plan_ = engine::planAttentionKernel(
            request.attn, request.config, request.level, in);
        artifact->estimate_ = kernels::estimateVqAttentionKernel(
            spec_, artifact->plan_, request.histogram,
            kernels::VqCostParams{}, &conflict_memo_);
    } else {
        artifact->plan_ = engine::planWeightKernel(
            request.kind, request.gemm, request.config, request.level,
            in);
        artifact->estimate_ = kernels::estimateVqWeightKernel(
            spec_, artifact->plan_, request.histogram,
            kernels::VqCostParams{}, &conflict_memo_);
    }
    artifact->symbol_ = codegen::kernelSymbolName(artifact->plan_);
    return artifact;
}

std::shared_ptr<const CompiledKernel>
Engine::compile(const KernelRequest &request)
{
    std::string key = cacheKey(request);

    // Planning runs under the cache lock: it is host-side microsecond
    // work, and serializing it guarantees concurrent compiles of one
    // request observe a single artifact (single-flight without a
    // per-key future).
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
        ++stats_.hits;
        return it->second;
    }
    ++stats_.misses;
    if (trace_)
        trace_->instant(
            "plan_compile", "compiler", 0, trace_->now(),
            {{"cache_size", static_cast<double>(cache_.size())}});
    auto artifact = compileUncached(request);
    cache_.emplace(key, artifact);
    insertion_order_.push_back(key);
    while (cache_.size() > options_.cache_capacity) {
        // FIFO eviction in insertion order: deterministic regardless
        // of thread interleavings the lock already serializes.
        cache_.erase(insertion_order_.front());
        insertion_order_.erase(insertion_order_.begin());
        ++stats_.evictions;
    }
    stats_.size = cache_.size();
    return artifact;
}

std::shared_ptr<const CompiledKernel>
Engine::compileBest(const KernelRequest &request,
                    const std::vector<engine::OptLevel> &levels)
{
    vqllm_assert(!levels.empty(), "compileBest needs at least one level");
    std::shared_ptr<const CompiledKernel> best;
    for (engine::OptLevel level : levels) {
        auto k = compile(request.atLevel(level));
        if (!best || k->latencyUs() < best->latencyUs())
            best = std::move(k);
    }
    return best;
}

CacheStats
Engine::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
Engine::clearCache()
{
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.clear();
    insertion_order_.clear();
    conflict_memo_.clear();
    stats_.size = 0;
}

std::size_t
Engine::conflictMemoSize() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return conflict_memo_.size();
}

void
Engine::setTrace(obs::TraceRecorder *trace)
{
    std::lock_guard<std::mutex> lock(mutex_);
    trace_ = trace;
}

void
Engine::exportMetrics(obs::MetricsRegistry &registry,
                      const std::string &prefix) const
{
    CacheStats s = stats();
    registry.counter(prefix + ".hits").add(s.hits);
    registry.counter(prefix + ".misses").add(s.misses);
    registry.counter(prefix + ".evictions").add(s.evictions);
    registry.gauge(prefix + ".size").set(static_cast<double>(s.size));
    registry.gauge(prefix + ".hit_rate").set(s.hitRate());
}

} // namespace vqllm::compiler
