/**
 * @file
 * Cache-key canonicalization tests: every plan-affecting input must
 * separate keys (histogram presence and contents, shuffle threshold,
 * tiling, GPU spec, level, shape, config), while equivalent spellings
 * of one request (attention kv_heads MHA default) must collide.  Golden
 * strings pin the exact key bytes.
 */
#include <gtest/gtest.h>

#include <string>

#include "compiler/engine.h"
#include "vq/profiler.h"

namespace vqllm::compiler {
namespace {

using engine::OptLevel;

KernelRequest
baseRequest()
{
    return KernelRequest::gemvOp({1, 4096, 4096}, vq::gptvq2(),
                                 OptLevel::O4);
}

TEST(CacheKey, IdenticalRequestsShareAKey)
{
    Engine eng(gpusim::rtx4090());
    EXPECT_EQ(eng.cacheKey(baseRequest()), eng.cacheKey(baseRequest()));
}

TEST(CacheKey, HistogramPresenceSeparatesKeys)
{
    Engine eng(gpusim::rtx4090());
    auto hist = vq::syntheticZipfHistogram(256);
    auto with = baseRequest();
    with.histogram = &hist;
    EXPECT_NE(eng.cacheKey(baseRequest()), eng.cacheKey(with));
}

TEST(CacheKey, HistogramContentsSeparateKeys)
{
    Engine eng(gpusim::rtx4090());
    auto flat = vq::syntheticZipfHistogram(256, 0.1);
    auto skewed = vq::syntheticZipfHistogram(256, 1.5);
    auto a = baseRequest();
    a.histogram = &flat;
    auto b = baseRequest();
    b.histogram = &skewed;
    EXPECT_NE(eng.cacheKey(a), eng.cacheKey(b));

    // Same contents at a different address: same key (content hash,
    // not pointer identity).
    auto flat_copy = flat;
    auto c = baseRequest();
    c.histogram = &flat_copy;
    EXPECT_EQ(eng.cacheKey(a), eng.cacheKey(c));
}

TEST(CacheKey, ShuffleThresholdSeparatesKeys)
{
    EngineOptions strict;
    strict.shuffle_threshold = 0;
    Engine defaults(gpusim::rtx4090());
    Engine no_shuffles(gpusim::rtx4090(), strict);
    EXPECT_NE(defaults.cacheKey(baseRequest()),
              no_shuffles.cacheKey(baseRequest()));
}

TEST(CacheKey, TilingSeparatesKeys)
{
    EngineOptions wide;
    wide.tiling.weight_block_cols = 256;
    Engine defaults(gpusim::rtx4090());
    Engine widened(gpusim::rtx4090(), wide);
    EXPECT_NE(defaults.cacheKey(baseRequest()),
              widened.cacheKey(baseRequest()));
}

TEST(CacheKey, GpuSpecSeparatesKeys)
{
    Engine ada(gpusim::rtx4090());
    Engine ampere(gpusim::teslaA40());
    EXPECT_NE(ada.cacheKey(baseRequest()),
              ampere.cacheKey(baseRequest()));

    // A same-name spec with different resources must also separate
    // (the fingerprint is structural, not just the marketing name).
    gpusim::GpuSpec cut = gpusim::rtx4090();
    cut.dram_bw_gbps /= 2;
    Engine degraded(cut);
    EXPECT_NE(ada.cacheKey(baseRequest()),
              degraded.cacheKey(baseRequest()));

    // The fingerprint covers *every* spec field the cost model reads,
    // not a headline subset — a sensitivity sweep over any of them
    // must never alias onto another spec's entries.
    gpusim::GpuSpec tuned = gpusim::rtx4090();
    tuned.dram_efficiency *= 0.5;
    Engine detuned(tuned);
    EXPECT_NE(ada.cacheKey(baseRequest()),
              detuned.cacheKey(baseRequest()));

    gpusim::GpuSpec slow_launch = gpusim::rtx4090();
    slow_launch.launch_overhead_us += 1.0;
    Engine overhead(slow_launch);
    EXPECT_NE(ada.cacheKey(baseRequest()),
              overhead.cacheKey(baseRequest()));
}

TEST(CacheKey, PrecomputedHistogramDigestMatchesInlineHash)
{
    Engine eng(gpusim::rtx4090());
    auto hist = vq::syntheticZipfHistogram(256);
    auto inline_hashed = baseRequest();
    inline_hashed.histogram = &hist;
    auto precomputed = inline_hashed;
    precomputed.histogram_digest = histogramDigest(hist);
    EXPECT_EQ(eng.cacheKey(inline_hashed), eng.cacheKey(precomputed));
}

TEST(CacheKey, LevelShapeKindAndConfigSeparateKeys)
{
    Engine eng(gpusim::rtx4090());
    auto base = eng.cacheKey(baseRequest());

    EXPECT_NE(base, eng.cacheKey(baseRequest().atLevel(OptLevel::O2)));

    auto wider = KernelRequest::gemvOp({1, 8192, 4096}, vq::gptvq2(),
                                       OptLevel::O4);
    EXPECT_NE(base, eng.cacheKey(wider));

    auto gemm = KernelRequest::gemmOp({1, 4096, 4096}, vq::gptvq2(),
                                      OptLevel::O4);
    EXPECT_NE(base, eng.cacheKey(gemm));

    auto quip = KernelRequest::gemvOp({1, 4096, 4096}, vq::quip4(),
                                      OptLevel::O4);
    EXPECT_NE(base, eng.cacheKey(quip));
}

TEST(CacheKey, AttentionMhaDefaultIsCanonical)
{
    Engine eng(gpusim::rtx4090());
    engine::AttnShape implicit{1, 32, 1024, 128}; // kv_heads = 0 (MHA)
    engine::AttnShape explicit_mha{1, 32, 1024, 128, 32};
    engine::AttnShape gqa{1, 32, 1024, 128, 8};
    auto key = [&](const engine::AttnShape &s) {
        return eng.cacheKey(KernelRequest::attentionOp(s, vq::cq2(),
                                                       OptLevel::O4));
    };
    EXPECT_EQ(key(implicit), key(explicit_mha));
    EXPECT_NE(key(implicit), key(gqa));
}

TEST(CacheKey, GemmAndAttentionShapesDoNotLeakAcrossKinds)
{
    // The non-active shape member must not contribute: two GeMV
    // requests differing only in the attn member collide, as do two
    // attention requests differing only in gemm.
    Engine eng(gpusim::rtx4090());
    auto a = baseRequest();
    auto b = baseRequest();
    b.attn = engine::AttnShape{7, 7, 7, 7};
    EXPECT_EQ(eng.cacheKey(a), eng.cacheKey(b));
}

// The engine-constant part of every key on a default RTX 4090 engine:
// planning policy, then every GpuSpec field in declaration order.
const std::string kRtx4090Suffix =
    "|thr=5|tile=128,64,4,256|spec=RTX 4090/128/102400/101376/65536/"
    "1536/24/255/32/32/128/256/1008/0.82/2.52/165.2/82.6/128/128/560/"
    "29/6/32/3";

TEST(CacheKey, GoldenGemvWithoutHistogram)
{
    Engine eng(gpusim::rtx4090());
    EXPECT_EQ(eng.cacheKey(baseRequest()),
              "op=GeMV|shape=1,4096,4096|cfg=GPTVQ-2/4/256/1/1/0/256"
              "|lvl=O4" +
                  kRtx4090Suffix + "|hist=none");
}

TEST(CacheKey, GoldenGemmWithHistogram)
{
    Engine eng(gpusim::rtx4090());
    auto hist = vq::syntheticZipfHistogram(256);
    auto request = KernelRequest::gemmOp({16, 11008, 4096}, vq::quip4(),
                                         OptLevel::O2, &hist);
    const std::string golden =
        "op=GeMM|shape=16,11008,4096|cfg=QuiP#-4/8/65536/2/0/1/256"
        "|lvl=O2" +
        kRtx4090Suffix + "|hist=256:24a7b8c8849b3cf2";
    EXPECT_EQ(eng.cacheKey(request), golden);
    // The precomputed-digest path spells the same key.
    request.histogram_digest = histogramDigest(hist);
    EXPECT_EQ(eng.cacheKey(request), golden);
}

TEST(CacheKey, GoldenAttentionKvHeads)
{
    Engine eng(gpusim::rtx4090());
    // kv_heads 0 spells out the MHA default (32 heads).
    EXPECT_EQ(eng.cacheKey(KernelRequest::attentionOp(
                  {8, 32, 4096, 128}, vq::cq2(), OptLevel::O3)),
              "op=Attention(Decode)|shape=8,32,4096,128,32"
              "|cfg=CQ-2/4/256/1/2/0/256|lvl=O3" +
                  kRtx4090Suffix + "|hist=none");
    // Explicit GQA kv_heads.
    EXPECT_EQ(eng.cacheKey(KernelRequest::attentionOp(
                  {8, 32, 4096, 128, 8}, vq::cq4(), OptLevel::GC)),
              "op=Attention(Decode)|shape=8,32,4096,128,8"
              "|cfg=CQ-4/2/256/1/2/0/256|lvl=GC" +
                  kRtx4090Suffix + "|hist=none");
}

} // namespace
} // namespace vqllm::compiler
