/**
 * @file
 * kernel_suite: the paper's Fig. 13 case set plus CQ-4, end to end
 * through the vq, compiler, codegen and kernels layers, with no serving
 * loop.
 *
 * One repetition fits codebooks on seeded tensors and profiles their
 * access histograms, compiles every case at every rung GC..O4 on a
 * fresh Engine (pure misses), looks every request up again on the warm
 * Engine (pure hits) and picks the best O1..O4 rung, emits the CUDA
 * source of every artifact, and runs the fused functional kernels at a
 * reduced size against kernels::reference* over
 * VectorQuantizer::dequantize.  Modelled latencies use the paper-scale
 * shapes; functional runs use small ones.
 */
#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>

#include "common.h"
#include "compiler/engine.h"
#include "kernels/reference.h"
#include "spans.h"
#include "tensor/datagen.h"
#include "vq/profiler.h"
#include "vq/quantizer.h"

namespace perfbench {
namespace {

using namespace vqllm;
using engine::OpKind;
using engine::OptLevel;

/** Paper headline of Fig. 13: mean best-vs-GC latency reduction. */
constexpr double kPaperReductionPct = 46.13;
/** Functional outputs must match the reference this closely. */
constexpr double kMaxAbsErr = 1e-3;

constexpr OptLevel kRungs[] = {OptLevel::GC, OptLevel::SC, OptLevel::O1,
                               OptLevel::O2, OptLevel::O3, OptLevel::O4};
const std::vector<OptLevel> kBestRungs = {OptLevel::O1, OptLevel::O2,
                                          OptLevel::O3, OptLevel::O4};

// Reduced functional sizes: a 128x256 weight (one GPTVQ tile wide),
// and a 256-token, 4-head, 64-channel KV cache.
constexpr std::size_t kWeightN = 128, kWeightK = 256, kGemmM = 16;
constexpr std::size_t kKvTokens = 256, kKvHeads = 4, kKvDim = 64;

/** One modelled case at paper scale. */
struct Case
{
    std::size_t cfg; ///< index into configs()
    OpKind kind;
    engine::GemmShape gemm;
    engine::AttnShape attn;
    /** Part of the Fig. 13 set (CQ-4 cases are extra). */
    bool fig13 = true;
};

/** One functional check at reduced size. */
struct FunctionalCase
{
    std::string name;
    std::size_t cfg;
    OpKind kind;
    std::size_t batch; ///< GeMV/GeMM rows or attention queries
};

const std::vector<vq::VQConfig> &
configs()
{
    static const std::vector<vq::VQConfig> c = {
        vq::quip4(), vq::aqlm3(), vq::gptvq2(), vq::cq2(), vq::cq4()};
    return c;
}

bool
isKv(std::size_t cfg)
{
    return cfg >= 3;
}

/** The modelled cases in Fig. 13 order, for Llama-7B then Llama-65B
 *  (hidden size, heads): GeMM, GeMV BS1 and GeMV BS16 for each weight
 *  config, then decode attention at 1k/4k tokens and BS1/BS8 for each
 *  KV config. */
std::vector<Case>
modelledCases()
{
    std::vector<Case> out;
    for (auto [hidden, heads] : {std::pair<std::size_t, std::size_t>{4096, 32},
                                 {8192, 64}}) {
        for (auto [kind, rows] :
             {std::pair{OpKind::GeMM, std::size_t{4096}},
              std::pair{OpKind::GeMV, std::size_t{1}},
              std::pair{OpKind::GeMV, std::size_t{16}}})
            for (std::size_t c = 0; c < 3; ++c) {
                Case k;
                k.cfg = c;
                k.kind = kind;
                k.gemm = {rows, hidden, hidden};
                out.push_back(k);
            }
        for (std::size_t c : {3u, 4u})
            for (std::size_t seq : {1024u, 4096u})
                for (std::size_t bs : {1u, 8u}) {
                    Case k;
                    k.cfg = c;
                    k.kind = OpKind::AttentionDecode;
                    k.attn = {bs, heads, seq, 128};
                    k.fig13 = c == 3;
                    out.push_back(k);
                }
    }
    return out;
}

std::vector<FunctionalCase>
functionalCases()
{
    std::vector<FunctionalCase> out;
    for (std::size_t c = 0; c < 3; ++c) {
        out.push_back({"GeMM/" + configs()[c].name, c, OpKind::GeMM, kGemmM});
        out.push_back({"GeMV-BS1/" + configs()[c].name, c, OpKind::GeMV, 1});
        out.push_back(
            {"GeMV-BS16/" + configs()[c].name, c, OpKind::GeMV, 16});
    }
    for (std::size_t c : {3u, 4u})
        for (std::size_t bs : {1u, 8u})
            out.push_back({"attn-BS" + std::to_string(bs) + "/" +
                               configs()[c].name,
                           c, OpKind::AttentionDecode, bs});
    return out;
}

/** Seeded tensors of one run (the set-up phase). */
struct Inputs
{
    /** Per config: the sample its access histogram is profiled on. */
    std::vector<Tensor<float>> hist_data;
    /** Per weight config: a [kWeightN, kWeightK] weight. */
    std::vector<Tensor<float>> weights;
    /** Per KV config: K and V caches, [tokens, heads * dim]. */
    std::vector<Tensor<float>> kv_k, kv_v;
    Tensor<float> x_gemm;      ///< [kGemmM, kWeightK]
    Tensor<float> queries;     ///< [8, kKvHeads, kKvDim]
};

Tensor<float>
flatKv(Rng &rng)
{
    auto kv = generateKvCache(kKvHeads, kKvTokens, kKvDim, rng);
    Tensor<float> flat({kKvTokens, kKvHeads * kKvDim});
    for (std::size_t h = 0; h < kKvHeads; ++h)
        for (std::size_t t = 0; t < kKvTokens; ++t)
            for (std::size_t c = 0; c < kKvDim; ++c)
                flat.at(t, h * kKvDim + c) = kv.at(h, t, c);
    return flat;
}

Inputs
makeInputs(std::uint64_t seed)
{
    Inputs in;
    // Histogram samples follow the repo's offline-profiling recipe:
    // clustered weight sub-vectors (with recurring templates for large
    // codebooks) or KV-like rows, one sub-vector per row.
    for (std::size_t c = 0; c < configs().size(); ++c) {
        const vq::VQConfig &cfg = configs()[c];
        Rng rng(subSeed(seed, 100 + c));
        ClusteredDataSpec spec;
        spec.num_clusters = isKv(c) ? 32 : 512;
        spec.popularity_alpha = 0.3;
        bool large = !isKv(c) && cfg.storedEntries() >= 2048;
        if (large) {
            spec.duplicate_pool = 22;
            spec.duplicate_fraction = 0.16;
        }
        std::size_t rows = large ? 8192 : isKv(c) ? 4096 : 2048;
        Tensor<float> d = isKv(c)
                              ? generateKvCache(1, rows, cfg.vector_size, rng)
                              : generateClustered(rows, cfg.vector_size,
                                                  spec, rng);
        d.reshape({rows, cfg.vector_size});
        in.hist_data.push_back(std::move(d));
    }
    for (std::size_t c = 0; c < 3; ++c) {
        Rng rng(subSeed(seed, 200 + c));
        in.weights.push_back(generateLlmWeight(kWeightN, kWeightK, rng));
    }
    for (std::size_t c = 3; c < configs().size(); ++c) {
        Rng rng(subSeed(seed, 300 + c));
        in.kv_k.push_back(flatKv(rng));
        in.kv_v.push_back(flatKv(rng));
    }
    Rng rng(subSeed(seed, 400));
    in.x_gemm = Tensor<float>({kGemmM, kWeightK});
    fillNormal(in.x_gemm, rng);
    in.queries = Tensor<float>({8, kKvHeads, kKvDim});
    fillNormal(in.queries, rng);
    return in;
}

/** Reduced codebook for the functional fits (as the kernel tests do):
 *  at most 64 entries, a 16-entry lattice base. */
vq::VQConfig
functionalConfig(const vq::VQConfig &base)
{
    vq::VQConfig cfg = base;
    cfg.num_entries = std::min<std::size_t>(cfg.num_entries, 64);
    if (cfg.lattice) {
        cfg.lattice_base_entries = 16;
        cfg.num_entries = 16u << cfg.vector_size;
    }
    return cfg;
}

/** What one repetition produced. */
struct RepOutput
{
    /** Modelled latency per case: GC and best O1..O4. */
    std::vector<double> gc_us, best_us;
    std::vector<std::string> best_symbols;
    double dram_bytes = 0;
    double smem_tx = 0, smem_ideal = 0;
    std::vector<double> max_err; ///< per functional check
    cache::AccessStats access;
    double source_bytes = 0;
    std::size_t empty_sources = 0;
    std::vector<double> recon_mse;
    compiler::CacheStats stats;
};

double
reconMse(const Tensor<float> &a, const Tensor<float> &b)
{
    double s = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        double d = static_cast<double>(a[i]) - b[i];
        s += d * d;
    }
    return s / static_cast<double>(a.size());
}

double
maxAbsError(const Tensor<float> &a, const Tensor<float> &b)
{
    if (a.size() != b.size())
        return INFINITY;
    double m = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
    return m;
}

vq::QuantizedTensor
fit(SpanRecorder *rec, const vq::VQConfig &cfg, const vq::KMeansOptions &o,
    const Tensor<float> &data)
{
    ScopedSpan s(rec, "vq.fit");
    return vq::VectorQuantizer(cfg, o).quantize(data);
}

std::shared_ptr<const compiler::CompiledKernel>
compile(SpanRecorder *rec, compiler::Engine &eng,
        const compiler::KernelRequest &req, const char *span)
{
    ScopedSpan s(rec, span);
    return eng.compile(req);
}

compiler::KernelRequest
request(OpKind kind, const engine::GemmShape &g, const engine::AttnShape &a,
        const vq::VQConfig &cfg, const vq::AccessHistogram *hist)
{
    switch (kind) {
      case OpKind::GeMM:
        return compiler::KernelRequest::gemmOp(g, cfg, OptLevel::GC, hist);
      case OpKind::GeMV:
        return compiler::KernelRequest::gemvOp(g, cfg, OptLevel::GC, hist);
      default:
        return compiler::KernelRequest::attentionOp(a, cfg, OptLevel::GC,
                                                    hist);
    }
}

/** Block @p index of @p t, as a tensor of @p shape: rows of the
 *  activations, or one query of the attention batch. */
Tensor<float>
block(const Tensor<float> &t, std::size_t index, Shape shape)
{
    Tensor<float> out(std::move(shape));
    std::copy_n(t.data() + index * out.size(), out.size(), out.data());
    return out;
}

RepOutput
runRep(const Inputs &in, SpanRecorder *rec)
{
    RepOutput out;
    const auto &cfgs = configs();

    // ---- vq: histogram fits and functional fits.
    std::vector<vq::AccessHistogram> hists;
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        vq::VQConfig book = cfgs[c];
        book.scope = vq::CodebookScope::PerTensor;
        vq::KMeansOptions o;
        o.max_iters = 4;
        o.sample_limit = 1024;
        auto qt = fit(rec, book, o, in.hist_data[c]);
        ScopedSpan s(rec, "vq.profile");
        hists.push_back(std::move(vq::profileAccesses(qt).histograms[0]));
    }
    vq::KMeansOptions fo;
    fo.max_iters = 6;
    std::vector<vq::QuantizedTensor> w_qt, k_qt, v_qt;
    std::vector<vq::AccessHistogram> f_hists;
    auto functionalFit = [&](const vq::VQConfig &cfg,
                             const Tensor<float> &data) {
        auto qt = fit(rec, functionalConfig(cfg), fo, data);
        ScopedSpan s(rec, "vq.profile");
        vq::reorderByFrequency(qt);
        return std::make_pair(std::move(qt),
                              vq::profileAccesses(qt).histograms[0]);
    };
    for (std::size_t c = 0; c < 3; ++c) {
        auto [qt, h] = functionalFit(cfgs[c], in.weights[c]);
        w_qt.push_back(std::move(qt));
        f_hists.push_back(std::move(h));
    }
    for (std::size_t c = 3; c < cfgs.size(); ++c) {
        auto [qk, h] = functionalFit(cfgs[c], in.kv_k[c - 3]);
        auto [qv, hv] = functionalFit(cfgs[c], in.kv_v[c - 3]);
        k_qt.push_back(std::move(qk));
        v_qt.push_back(std::move(qv));
        f_hists.push_back(std::move(h));
    }

    // ---- compiler: every rung of every case on a fresh engine.
    compiler::Engine eng(gpusim::rtx4090());
    if (rec != nullptr)
        rec->setEngine(&eng);
    const auto cases = modelledCases();
    const auto fcases = functionalCases();
    auto fcaseRequest = [&](const FunctionalCase &f) {
        const vq::QuantizedTensor &qt =
            isKv(f.cfg) ? k_qt[f.cfg - 3] : w_qt[f.cfg];
        return request(f.kind, {f.batch, kWeightN, kWeightK},
                       {f.batch, kKvHeads, kKvTokens, kKvDim}, qt.config,
                       &f_hists[f.cfg]);
    };
    std::vector<std::shared_ptr<const compiler::CompiledKernel>> artifacts;
    for (const Case &k : cases) {
        auto req = request(k.kind, k.gemm, k.attn, cfgs[k.cfg],
                           &hists[k.cfg]);
        for (OptLevel l : kRungs)
            artifacts.push_back(compile(rec, eng, req.atLevel(l),
                                        "compiler.compile_miss"));
    }
    for (const FunctionalCase &f : fcases)
        for (OptLevel l : kRungs)
            artifacts.push_back(compile(rec, eng, fcaseRequest(f).atLevel(l),
                                        "compiler.compile_miss"));

    // ---- compiler: the same requests again on the warm engine.
    for (const Case &k : cases) {
        auto req = request(k.kind, k.gemm, k.attn, cfgs[k.cfg],
                           &hists[k.cfg]);
        for (OptLevel l : kRungs)
            compile(rec, eng, req.atLevel(l), "compiler.compile_hit");
        std::shared_ptr<const compiler::CompiledKernel> best;
        {
            ScopedSpan s(rec, "compiler.compile_hit");
            best = eng.compileBest(req, kBestRungs);
        }
        auto gc = compile(rec, eng, req, "compiler.compile_hit");
        out.gc_us.push_back(gc->latencyUs());
        out.best_us.push_back(best->latencyUs());
        out.best_symbols.push_back(best->symbolName());
        const auto &cnt = best->estimate().counters;
        out.dram_bytes += static_cast<double>(cnt.dramBytes());
        out.smem_tx += static_cast<double>(cnt.smem_transactions);
        out.smem_ideal += static_cast<double>(cnt.smem_ideal_transactions);
    }
    std::vector<std::shared_ptr<const compiler::CompiledKernel>> fkernels;
    for (const FunctionalCase &f : fcases)
        for (OptLevel l : kRungs)
            fkernels.push_back(compile(rec, eng, fcaseRequest(f).atLevel(l),
                                       "compiler.compile_hit"));
    out.stats = eng.stats();
    if (rec != nullptr)
        rec->setEngine(nullptr);

    // ---- codegen: the CUDA source of every artifact.
    for (const auto &a : artifacts) {
        ScopedSpan s(rec, "codegen.emit");
        const std::string &src = a->source();
        out.source_bytes += static_cast<double>(src.size());
        out.empty_sources += src.empty() ? 1 : 0;
    }

    // ---- kernels: fused functional runs against the reference.
    auto dequant = [&](const vq::QuantizedTensor &qt) {
        ScopedSpan s(rec, "vq.dequantize");
        return vq::VectorQuantizer::dequantize(qt);
    };
    std::vector<Tensor<float>> dense_w, dense_k, dense_v;
    for (std::size_t c = 0; c < w_qt.size(); ++c) {
        dense_w.push_back(dequant(w_qt[c]));
        out.recon_mse.push_back(reconMse(in.weights[c], dense_w[c]));
    }
    for (std::size_t c = 0; c < k_qt.size(); ++c) {
        dense_k.push_back(dequant(k_qt[c]));
        dense_v.push_back(dequant(v_qt[c]));
        out.recon_mse.push_back(reconMse(in.kv_k[c], dense_k[c]));
        out.recon_mse.push_back(reconMse(in.kv_v[c], dense_v[c]));
    }
    const Shape q_shape = {kKvHeads, kKvDim};
    std::size_t ki = 0;
    for (const FunctionalCase &f : fcases) {
        const bool attn = f.kind == OpKind::AttentionDecode;
        const std::size_t kv = f.cfg - 3;
        const Tensor<float> x = block(in.x_gemm, 0, {f.batch, kWeightK});
        // Reference output of the case, [batch, n] or [batch, H, C].
        Tensor<float> expect;
        {
            ScopedSpan s(rec, "kernels.reference");
            if (attn) {
                Tensor<float> k3({kKvHeads, kKvTokens, kKvDim});
                Tensor<float> v3({kKvHeads, kKvTokens, kKvDim});
                for (std::size_t h = 0; h < kKvHeads; ++h)
                    for (std::size_t t = 0; t < kKvTokens; ++t)
                        for (std::size_t c = 0; c < kKvDim; ++c) {
                            k3.at(h, t, c) = dense_k[kv].at(t, h * kKvDim + c);
                            v3.at(h, t, c) = dense_v[kv].at(t, h * kKvDim + c);
                        }
                expect = Tensor<float>({f.batch, kKvHeads, kKvDim});
                for (std::size_t b = 0; b < f.batch; ++b) {
                    auto o = kernels::referenceAttention(
                        block(in.queries, b, q_shape), k3, v3);
                    std::copy_n(o.data(), o.size(),
                                expect.data() + b * o.size());
                }
            } else {
                expect = kernels::referenceGemm(x, dense_w[f.cfg]);
            }
        }
        for (std::size_t l = 0; l < std::size(kRungs); ++l) {
            const auto &kern = *fkernels[ki++];
            Tensor<float> got(expect.shape());
            ScopedSpan s(rec, "kernels.run");
            // GeMM runs the batch at once; GeMV and attention run one
            // vector or query per call.
            std::size_t calls = f.kind == OpKind::GeMM ? 1 : f.batch;
            for (std::size_t b = 0; b < calls; ++b) {
                kernels::FunctionalResult res =
                    f.kind == OpKind::GeMM
                        ? kern.runGemm(w_qt[f.cfg], x)
                    : f.kind == OpKind::GeMV
                        ? kern.runGemv(w_qt[f.cfg],
                                       block(in.x_gemm, b, {kWeightK}))
                        : kern.runAttention(k_qt[kv], v_qt[kv],
                                            block(in.queries, b, q_shape));
                out.access.reg_hits += res.stats.reg_hits;
                out.access.shared_hits += res.stats.shared_hits;
                out.access.global_hits += res.stats.global_hits;
                std::size_t n = res.output.size();
                if ((b + 1) * n <= got.size())
                    std::copy_n(res.output.data(), n, got.data() + b * n);
            }
            out.max_err.push_back(maxAbsError(got, expect));
        }
    }
    return out;
}

std::vector<double>
simValues(const RepOutput &o)
{
    std::vector<double> v = o.gc_us;
    v.insert(v.end(), o.best_us.begin(), o.best_us.end());
    v.push_back(o.dram_bytes);
    v.push_back(o.smem_tx);
    v.push_back(o.smem_ideal);
    return v;
}

} // namespace

RunResult
runKernelSuite(const RunArgs &args)
{
    RunResult r;
    std::vector<double> setup;
    Inputs in;
    for (int i = 0; i < kSetupRepeats; ++i) {
        auto t0 = Clock::now();
        in = makeInputs(args.seed);
        setup.push_back(secondsSince(t0));
    }
    r.values["setup_s"] = median(setup);

    SpanRecorder rec;
    PassClock clock;
    std::vector<double> traced_s;
    std::optional<RepOutput> first;
    auto t_phase = Clock::now();
    do {
        RepOutput o = clock.time([&] { return runRep(in, nullptr); });
        if (!first)
            r.values["peak_rss_mb"] = peakRssMb();
        if (args.trace) {
            rec.newRun();
            auto t0 = Clock::now();
            int root = rec.begin("kernel_suite.rep");
            RepOutput t = runRep(in, &rec);
            rec.end(root);
            traced_s.push_back(secondsSince(t0));
            r.check(simValues(t) == simValues(o) && t.max_err == o.max_err,
                    "traced repetition matches the untraced one");
        }
        if (!first)
            first = std::move(o);
        else
            r.check(simValues(*first) == simValues(o) &&
                        first->max_err == o.max_err &&
                        first->best_symbols == o.best_symbols,
                    "modelled and functional results identical across "
                    "repeats");
    } while (secondsSince(t_phase) < args.seconds);
    clock.report(r);

    const RepOutput &o = *first;
    const auto cases = modelledCases();
    const auto fcases = functionalCases();
    for (std::size_t i = 0; i < o.max_err.size(); ++i) {
        const auto &f = fcases[i / std::size(kRungs)];
        r.check(o.max_err[i] <= kMaxAbsErr,
                f.name + " at " +
                    engine::optLevelName(kRungs[i % std::size(kRungs)]) +
                    ": functional output within 1e-3 of the reference "
                    "(max abs err " +
                    std::to_string(o.max_err[i]) + ")");
    }
    r.check(o.empty_sources == 0, "every artifact emits CUDA source");

    double red_sum = 0;
    std::size_t red_n = 0;
    for (std::size_t i = 0; i < cases.size(); ++i)
        if (cases[i].fig13) {
            red_sum += 1.0 - o.best_us[i] / o.gc_us[i];
            ++red_n;
        }
    double red_pct = 100.0 * red_sum / static_cast<double>(red_n);
    auto &v = r.values;
    v["sim_kernel_us_geomean"] = geomean(o.best_us);
    v["sim_latency_reduction_pct"] = red_pct;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "sim_latency_reduction_pct %.2f%% over %zu Fig. 13 cases "
                  "vs paper %.2f%%: model error %+.2f points",
                  red_pct, red_n, kPaperReductionPct,
                  red_pct - kPaperReductionPct);
    r.notes.push_back(buf);
    std::snprintf(buf, sizeof buf,
                  "sim_kernel_us_geomean %.3f us over %zu cases "
                  "(unvalidated, no reference in the repo)",
                  v["sim_kernel_us_geomean"], cases.size());
    r.notes.push_back(buf);

    if (args.trace) {
        std::map<std::string, std::vector<double>> dur;
        std::map<std::string, double> total;
        for (const Span &s : rec.spans()) {
            dur[s.name].push_back(s.end_us - s.start_us);
            total[s.name] += s.end_us - s.start_us;
        }
        double runs = static_cast<double>(rec.runs());
        double lookups = static_cast<double>(o.stats.lookups());
        v["compiler.lookups"] = lookups;
        v["compiler.misses"] = static_cast<double>(o.stats.misses);
        v["compiler.hit_rate"] = o.stats.hitRate();
        v["compiler.miss_us_p50"] =
            quantile(dur["compiler.compile_miss"], 0.5);
        v["compiler.miss_us_p99"] =
            quantile(dur["compiler.compile_miss"], 0.99);
        v["compiler.hit_us_p50"] = quantile(dur["compiler.compile_hit"], 0.5);
        v["codegen.emit_us_p50"] = quantile(dur["codegen.emit"], 0.5);
        v["codegen.source_bytes"] = o.source_bytes;
        v["gpusim.dram_bytes"] = o.dram_bytes;
        v["gpusim.smem_conflict_ratio"] = o.smem_tx / o.smem_ideal;
        double acc = static_cast<double>(o.access.total());
        v["cache.reg_hit_frac"] = static_cast<double>(o.access.reg_hits) / acc;
        v["cache.shared_hit_frac"] =
            static_cast<double>(o.access.shared_hits) / acc;
        v["cache.global_hit_frac"] =
            static_cast<double>(o.access.global_hits) / acc;
        v["vq.fit_ms"] = total["vq.fit"] / runs / 1e3;
        v["vq.recon_mse"] = mean(o.recon_mse);
        v["kernels.run_ms"] = total["kernels.run"] / runs / 1e3;
        v["kernels.max_abs_err"] =
            *std::max_element(o.max_err.begin(), o.max_err.end());
        v["trace.overhead_frac"] = mean(traced_s) / mean(clock.passes()) - 1.0;
        for (const Metric &m : selfTimeMetrics(rec, selfTimeSpanNames(),
                                               "kernel_suite.rep", runs))
            v[m.name] = m.value;
        writeSpansFile(args.spans_out, rec);
    }
    v["failed_frac"] =
        static_cast<double>(r.failed) / static_cast<double>(r.attempted);
    return r;
}

} // namespace perfbench
