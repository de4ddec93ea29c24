/**
 * @file
 * Cache-key canonicalization tests: every request input must separate
 * keys (histogram presence and contents, level, shape, config), while
 * equivalent spellings of one request (attention kv_heads MHA default)
 * must collide.  The spec and planning policy are per-Engine constants
 * and stay out of the key.  Golden strings pin the exact key bytes.
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

TEST(CacheKey, EnginesOnDifferentSpecsCompileDistinctArtifacts)
{
    // The spec is not part of the key — each Engine's cache is
    // private — so the same request spells one key on both engines,
    // yet each compiles its own artifact against its own spec.
    Engine ada(gpusim::rtx4090());
    Engine ampere(gpusim::teslaA40());
    EXPECT_EQ(ada.cacheKey(baseRequest()), ampere.cacheKey(baseRequest()));
    auto a = ada.compile(baseRequest());
    auto b = ampere.compile(baseRequest());
    EXPECT_NE(a, b);
    EXPECT_NE(a->latencyUs(), b->latencyUs());
    EXPECT_EQ(ada.stats().misses, 1u);
    EXPECT_EQ(ampere.stats().misses, 1u);
    EXPECT_EQ(ada.stats().hits, 0u);
    EXPECT_EQ(ampere.stats().hits, 0u);
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

TEST(CacheKey, GoldenGemvWithoutHistogram)
{
    Engine eng(gpusim::rtx4090());
    EXPECT_EQ(eng.cacheKey(baseRequest()),
              "op=GeMV|shape=1,4096,4096|cfg=GPTVQ-2/4/256/1/1/0/256"
              "|lvl=O4|hist=none");
}

TEST(CacheKey, GoldenGemmWithHistogram)
{
    Engine eng(gpusim::rtx4090());
    auto hist = vq::syntheticZipfHistogram(256);
    auto request = KernelRequest::gemmOp({16, 11008, 4096}, vq::quip4(),
                                         OptLevel::O2, &hist);
    const std::string golden =
        "op=GeMM|shape=16,11008,4096|cfg=QuiP#-4/8/65536/2/0/1/256"
        "|lvl=O2|hist=256:24a7b8c8849b3cf2";
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
              "|cfg=CQ-2/4/256/1/2/0/256|lvl=O3|hist=none");
    // Explicit GQA kv_heads.
    EXPECT_EQ(eng.cacheKey(KernelRequest::attentionOp(
                  {8, 32, 4096, 128, 8}, vq::cq4(), OptLevel::GC)),
              "op=Attention(Decode)|shape=8,32,4096,128,8"
              "|cfg=CQ-4/2/256/1/2/0/256|lvl=GC|hist=none");
}

} // namespace
} // namespace vqllm::compiler
