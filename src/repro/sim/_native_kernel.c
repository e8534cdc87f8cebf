/* Native kernel: the paper's predictor as one sequential C walk.
 *
 * Each conditional branch reads one saturating counter per bank (1, 3
 * or 5 banks), takes the majority vote and then trains the banks under
 * the predictor's update policy:
 *
 *   TOTAL    every bank steps toward the outcome;
 *   PARTIAL  on a wrong vote every bank steps, on a right vote only the
 *            banks whose own prediction matched the outcome;
 *   LAZY     banks step only when the vote was wrong.
 *
 * Banks are separate tables, so the reads of one event never alias its
 * own writes, and the walk is the generic engine's per-branch loop with
 * the index functions precomputed (repro.sim.vectorized._walk_inputs).
 * Bank counts are odd, so "the vote was wrong" is "a majority of banks
 * was wrong" — no taken-vote tally is needed.
 *
 * The counters train toward `outcomes`, but a miss is scored against
 * `truth`: the voted direction (taken ^ wrong) must equal truth[i].
 * Every family passes the outcome stream twice except agree, whose
 * counters train on "agreed with the latched bias" while predictions
 * read the bias in force before the latch (repro.sim.vectorized).
 * The R006 lint rule keeps this entry point pinned to a scalar oracle
 * in tests/sim/test_native.py.
 */

#include <stdint.h>

#define REPRO_WALK_MAX_BANKS 5

enum { REPRO_TOTAL = 0, REPRO_PARTIAL = 1, REPRO_LAZY = 2 };

/* Walk `n` events through `banks` counter tables; return the misses
 * scored at positions >= warmup, or -1 for an unsupported bank count.
 *
 *   index      banks*n entry indices, bank-major
 *   outcomes   n bytes, 0/1 per event: the direction counters train to
 *   truth      n bytes, 0/1 per event: the direction a miss is scored on
 *   policy     REPRO_TOTAL, REPRO_PARTIAL or REPRO_LAZY
 *   threshold  predict taken when value >= threshold
 *   max_value  counters saturate in [0, max_value]
 *   values     banks*entries counters, bank-major; updated in place
 *   warmup     events below this position train but never score
 */
int64_t repro_walk(const uint64_t *index, const uint8_t *outcomes,
                   const uint8_t *truth, int64_t n, int32_t banks,
                   int32_t policy, int64_t threshold, int64_t max_value,
                   int64_t *values, int64_t entries, int64_t warmup)
{
    int32_t majority = banks / 2 + 1;
    int64_t misses = 0;
    int64_t i;

    if (banks < 1 || banks > REPRO_WALK_MAX_BANKS)
        return -1;
    for (i = 0; i < n; i++) {
        int64_t *slot[REPRO_WALK_MAX_BANKS];
        int32_t agrees[REPRO_WALK_MAX_BANKS];
        int32_t taken = outcomes[i] != 0;
        int32_t wrong_banks = 0;
        int32_t wrong, b;

        for (b = 0; b < banks; b++) {
            slot[b] = values + b * entries + index[b * n + i];
            agrees[b] = (*slot[b] >= threshold) == taken;
            wrong_banks += !agrees[b];
        }
        wrong = wrong_banks >= majority;
        misses += ((taken ^ wrong) != (truth[i] != 0)) & (i >= warmup);
        if (policy == REPRO_LAZY && !wrong)
            continue;
        for (b = 0; b < banks; b++) {
            int64_t v = *slot[b];
            if (policy == REPRO_PARTIAL && !wrong && !agrees[b])
                continue;
            if (taken) {
                if (v < max_value)
                    *slot[b] = v + 1;
            } else if (v > 0) {
                *slot[b] = v - 1;
            }
        }
    }
    return misses;
}
