/**
 * @file
 * Iteration-pricer memo tests: a long-lived pricer, which answers
 * repeated bucketed shapes from its own integer-keyed memos, must price
 * every call bit-identically to a fresh pricer per call on an engine
 * that retains nothing; a repeated decode step must not reach
 * the engine at all; and the KV-dequant attribution must equal the
 * decode-time difference against an FP16-KV pricer.
 */
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "compiler/engine.h"
#include "serving/scheduler.h"

namespace vqllm::serving {
namespace {

using gpusim::rtx4090;

llm::TpConfig
tpDegree(int degree)
{
    llm::TpConfig tp;
    tp.degree = degree;
    return tp;
}

/** One call of the seeded sequence: a decode step, a prefill chunk or
 *  a mixed iteration, with storage for the requests it points at. */
struct Call
{
    enum Kind { Decode, Prefill, Mixed } kind = Decode;
    std::vector<Request> reqs;
    Scheduler::Iteration it;
};

/**
 * A seeded random sequence of decode batches, prefill chunks and mixed
 * iterations.  Batch sizes and contexts are drawn from narrow ranges so
 * bucketed shapes repeat and the long-lived pricer's memos are hit.
 */
std::vector<Call>
randomCalls(std::uint64_t seed, std::size_t count)
{
    std::mt19937_64 rng(seed);
    auto uniform = [&](std::size_t lo, std::size_t hi) {
        return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
    };
    std::vector<Call> calls(count);
    for (Call &c : calls) {
        c.kind = static_cast<Call::Kind>(uniform(0, 2));
        const std::size_t decode =
            c.kind == Call::Prefill ? 0 : uniform(1, 6);
        const std::size_t prefill =
            c.kind == Call::Decode ? 0
                                   : (c.kind == Call::Prefill ? 1
                                                              : uniform(1, 2));
        c.reqs.resize(decode + prefill);
        for (std::size_t i = 0; i < c.reqs.size(); ++i) {
            c.reqs[i].id = i;
            c.reqs[i].prompt_len = uniform(1, 1024);
            c.reqs[i].max_new_tokens = 64;
            c.reqs[i].generated = uniform(0, 64);
        }
        for (std::size_t i = 0; i < decode; ++i)
            c.it.decode.push_back(&c.reqs[i]);
        for (std::size_t i = decode; i < c.reqs.size(); ++i) {
            Scheduler::PrefillChunk chunk;
            chunk.req = &c.reqs[i];
            chunk.tokens = uniform(1, 700);
            chunk.context = uniform(0, 1) == 0 ? 0 : uniform(1, 1500);
            chunk.last = uniform(0, 1) == 1;
            c.it.prefill.push_back(chunk);
        }
    }
    return calls;
}

void
expectBreakdownsEqual(const IterationPricer::Breakdown &a,
                      const IterationPricer::Breakdown &b)
{
    EXPECT_EQ(a.prefill_us, b.prefill_us);
    EXPECT_EQ(a.decode_us, b.decode_us);
    EXPECT_EQ(a.comm_us, b.comm_us);
    EXPECT_EQ(a.codebook_upload_us, b.codebook_upload_us);
}

TEST(PricerMemo, LongLivedPricerMatchesFreshUncachedPricers)
{
    const auto &model = llm::llama7b();
    compiler::EngineOptions cold_opts;
    cold_opts.cache_capacity = 0;
    compiler::Engine cold(rtx4090(), cold_opts);
    const std::vector<Call> calls = randomCalls(20251017, 36);

    for (llm::QuantScheme scheme : llm::kAllQuantSchemes) {
        for (llm::KvScheme kv : llm::kAllKvSchemes) {
            for (int degree : {1, 2, 4}) {
                SCOPED_TRACE(std::string(llm::quantSchemeName(scheme)) +
                             " weights, " + llm::kvSchemeName(kv) +
                             " KV, TP " + std::to_string(degree));
                const llm::TpConfig tp = tpDegree(degree);
                compiler::Engine eng(rtx4090());
                // `memo` prices the decode steps and prefill chunks and
                // accumulates their totals; `mixed` prices the mixed
                // iterations, compared per iteration.
                IterationPricer memo(eng, model, scheme, kv, tp);
                IterationPricer mixed(eng, model, scheme, kv, tp);

                // A decode step adds once to each cumulative figure, so
                // summing a fresh pricer's figures in call order
                // reproduces the long-lived pricer's sums exactly.
                IterationPricer::Breakdown expect;
                double expect_kv_dequant = 0;
                for (const Call &c : calls) {
                    IterationPricer fresh(cold, model, scheme, kv, tp);
                    switch (c.kind) {
                      case Call::Prefill: {
                        const auto &chunk = c.it.prefill.front();
                        EXPECT_EQ(memo.prefillChunkUs(chunk.tokens,
                                                      chunk.context),
                                  fresh.prefillChunkUs(chunk.tokens,
                                                       chunk.context));
                        break;
                      }
                      case Call::Decode: {
                        EXPECT_EQ(memo.decodeUs(c.it.decode),
                                  fresh.decodeUs(c.it.decode));
                        expect.decode_us += fresh.totals().decode_us;
                        expect.comm_us += fresh.commUs();
                        expect_kv_dequant += fresh.kvDequantUs();

                        // Attribution: the KV scheme's share of decode
                        // time is what an FP16-KV pricer charges less.
                        IterationPricer fp16_kv(cold, model, scheme,
                                                llm::KvScheme::FP16, tp);
                        fp16_kv.decodeUs(c.it.decode);
                        const double decode_us = fresh.totals().decode_us;
                        if (kv == llm::KvScheme::FP16)
                            EXPECT_EQ(fresh.kvDequantUs(), 0.0);
                        else
                            EXPECT_NE(fresh.kvDequantUs(), 0.0);
                        EXPECT_NEAR(fresh.kvDequantUs(),
                                    decode_us - fp16_kv.totals().decode_us,
                                    1e-9 * decode_us);
                        break;
                      }
                      case Call::Mixed:
                        EXPECT_EQ(mixed.iterationUs(c.it),
                                  fresh.iterationUs(c.it));
                        expectBreakdownsEqual(mixed.lastBreakdown(),
                                              fresh.lastBreakdown());
                        break;
                    }
                }
                expectBreakdownsEqual(memo.totals(), expect);
                EXPECT_EQ(memo.kvDequantUs(), expect_kv_dequant);
                EXPECT_EQ(memo.commUs(), expect.comm_us);
            }
        }
    }
}

TEST(PricerMemo, RepeatedDecodeStepMakesNoEngineLookups)
{
    compiler::Engine eng(rtx4090());
    IterationPricer pricer(eng, llm::llama7b(), llm::QuantScheme::VQ2,
                           llm::KvScheme::VQ4, tpDegree(2));
    std::vector<Request> reqs(5);
    std::vector<Request *> batch;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].id = i;
        reqs[i].prompt_len = 100 + 300 * i; // four context buckets
        reqs[i].max_new_tokens = 64;
        batch.push_back(&reqs[i]);
    }

    const double first = pricer.decodeUs(batch);
    const std::uint64_t lookups = eng.stats().lookups();
    ASSERT_GT(lookups, 0u); // the first step compiles through the engine
    EXPECT_EQ(pricer.decodeUs(batch), first);
    EXPECT_EQ(eng.stats().lookups(), lookups);
}

} // namespace
} // namespace vqllm::serving
