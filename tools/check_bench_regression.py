#!/usr/bin/env python3
"""CI perf-regression gate over the committed bench baselines.

Compares a freshly produced bench JSON against the committed baseline of
the same bench and fails (exit 1) when:

  * a throughput metric dropped more than --max-drop-pct below the
    baseline (default 25%), or
  * for the soaks, the outcome digest differs from the baseline while
    the campaign parameters (mode, requests, seed, fault rate) match — the
    digest is bit-deterministic, so any mismatch is a real behavior
    change, not noise.

A malformed input (missing "bench" kind, missing gated field) is reported
as a clear REGRESSION line naming the file and the field, never as a
Python traceback: a gate that crashes is a gate that silently stops
gating once someone renames a key.

Supported bench kinds (selected by the "bench"/"benchmark" key):

  soak              bench/soak_server's pass list, in every mode: each
                    candidate pass must equal the run's reference digest,
                    keep its accounting identity, and book a shard restart
                    when it injected shard kills; passes matched to the
                    baseline on (pool vs net, workers, shards, connections)
                    gate requests_per_sec (the median over the pass's
                    requests_per_sec_runs, which must be at least as many
                    as the baseline's) and, at equal campaign parameters,
                    the exact digest. Shard mode is not part of the match,
                    so process-mode runs are digest-compared against a
                    thread-mode baseline
  interp_throughput gates every kernel's decoded_steps_per_sec (matched
                    to the baseline by kernel name; a baseline kernel
                    missing from the candidate is a REGRESSION)
  request_reset     gates restore_speedup_vs_rebuild (reset to the load
                    state vs full VM reconstruction — a machine-relative
                    ratio, so it transfers across runner generations
                    better than raw ns/op), the median over the
                    restore_speedup_runs repetitions, which must be at
                    least as many as the baseline's
  interp_jit        gates per-kernel JIT-vs-decoded digest identity (any
                    mismatch is a correctness bug, not noise), the
                    min_jit_speedup_vs_decoded ratio, and its >= 2x floor;
                    for the call_kernels (the VM's Fig. 3) it gates the
                    same digest identity and a >= 3x JIT-over-decoded
                    floor on every hardened kernel with a seeded RNG (the
                    RDRAND kernel's draw cost is the hardware's, so it is
                    gated on digest identity alone); a candidate with
                    jit_available false (non-x86-64 runner) passes with a
                    note
  attack_corpus     gates the defeat-rate invariants of the DOP attack
                    corpus (smokestack must defeat >= 99% of attacks and
                    strictly beat every baseline defense; undefended
                    attacks must land >= 95%), spec distinctness, the
                    in-process rerun verdict, and the exact corpus digest
                    when the (seed, specs, budget) parameters match the
                    baseline

Only the Python standard library is used.

Usage:
  check_bench_regression.py BASELINE CANDIDATE [--max-drop-pct PCT]
"""

import argparse
import json
import sys


class GateError(Exception):
    """A malformed input that makes the gate impossible to evaluate."""


def fail(msg):
    print(f"REGRESSION: {msg}")
    return 1


def ok(msg):
    print(f"ok: {msg}")
    return 0


def require(d, key, where):
    """d[key], or a GateError naming the file and the missing field."""
    if not isinstance(d, dict) or key not in d:
        raise GateError(f"{where}: missing required field {key!r}")
    return d[key]


def check_drop(name, base, cand, max_drop_pct):
    """Fails when cand fell more than max_drop_pct below base."""
    if not isinstance(base, (int, float)) or not isinstance(cand, (int, float)):
        raise GateError(f"{name}: non-numeric value (base {base!r}, "
                        f"candidate {cand!r})")
    if base <= 0:
        return ok(f"{name}: baseline {base} not gateable")
    drop_pct = (base - cand) / base * 100.0
    if drop_pct > max_drop_pct:
        return fail(
            f"{name}: {cand:.1f} is {drop_pct:.1f}% below baseline "
            f"{base:.1f} (limit {max_drop_pct:.0f}%)"
        )
    return ok(f"{name}: {cand:.1f} vs baseline {base:.1f} ({drop_pct:+.1f}%)")


def same_params(base, cand, keys):
    return all(base.get(k) == cand.get(k) for k in keys)


def check_soak(base, cand, max_drop_pct):
    """One soak schema for every mode: a campaign plus a list of passes.

    Every candidate pass must reproduce the run's reference digest, keep
    its accounting identity, and (when it injected shard kills) book at
    least one shard restart. Passes are matched to baseline passes on
    (pool vs net, workers, shards, connections), the first pass per key;
    shard mode is deliberately not part of the key, so a process-mode
    candidate is digest-compared against a thread-mode baseline. Matched
    passes gate requests_per_sec, the median over the pass's runs, and,
    when the campaign parameters equal the baseline's, the exact digest.
    A candidate median over fewer runs than the baseline's is a
    REGRESSION: a single run swings by more than the gate on a shared
    host.
    """
    def key(p, where):
        transport = require(p, "transport", where)
        return ("pool" if transport == "pool" else "net",
                require(p, "workers", where), require(p, "shards", where),
                require(p, "connections", where))

    def label(k):
        return "{} workers={} shards={} conns={}".format(*k)

    def first_per_key(passes, where):
        by_key = {}
        for p in passes:
            by_key.setdefault(key(p, where), p)
        return by_key

    rc = 0
    reference = require(cand, "digest", "candidate")
    cand_passes = require(cand, "passes", "candidate")
    for i, p in enumerate(cand_passes):
        k = key(p, f"candidate pass {i + 1}")
        where = f"candidate pass {i + 1} ({label(k)})"
        digest = require(p, "digest", where)
        if digest != reference:
            rc |= fail(f"{where}: digest {digest} != the run's reference "
                       f"digest {reference}")
        if require(p, "identity_holds", where) is not True:
            rc |= fail(f"{where}: identity_holds is not true")
        if k[0] == "net":
            wire = require(p, "wire", where)
            restarts = require(wire, "shard_restarts", where)
            if require(wire, "shard_kills_enabled", where) and \
                    (not isinstance(restarts, int) or restarts < 1):
                rc |= fail(f"{where}: shard kills enabled but "
                           f"shard_restarts is {restarts!r} (expected >= 1)")
    rc |= ok(f"{len(cand_passes)} candidate passes checked against the "
             f"reference digest {reference}, the accounting identity and "
             "shard restarts")

    comparable = same_params(base, cand,
                             ["mode", "requests", "seed", "fault_rate"])
    if not comparable:
        print("note: campaign parameters differ from baseline; "
              "digests not compared")
    base_passes = first_per_key(require(base, "passes", "baseline"),
                                "baseline pass")
    compared = 0
    for k, p in first_per_key(cand_passes, "candidate pass").items():
        b = base_passes.get(k)
        if b is None:
            continue
        compared += 1
        base_runs = len(b.get("requests_per_sec_runs", [None]))
        cand_runs = len(p.get("requests_per_sec_runs", [None]))
        if cand_runs < base_runs:
            rc |= fail(f"{label(k)}: requests_per_sec is a median over "
                       f"{cand_runs} run(s), the baseline's over "
                       f"{base_runs}")
        rc |= check_drop(
            f"{label(k)} requests_per_sec (median of {cand_runs})",
            require(b, "requests_per_sec", "baseline pass"),
            require(p, "requests_per_sec", "candidate pass"),
            max_drop_pct,
        )
        if not comparable:
            continue
        base_digest = require(b, "digest", "baseline pass")
        if base_digest != p["digest"]:
            rc |= fail(f"{label(k)}: digest {p['digest']} != baseline "
                       f"{base_digest} for identical parameters "
                       "(determinism break)")
        else:
            rc |= ok(f"{label(k)}: digest matches baseline exactly "
                     f"({base_digest})")
    if compared == 0:
        rc |= ok("no pass matches a baseline pass; nothing compared")
    return rc


def check_interp(base, cand, max_drop_pct):
    cand_kernels = {}
    for kernel in require(cand, "kernels", "candidate"):
        cand_kernels[require(kernel, "name", "candidate kernel")] = kernel
    rc = 0
    for kernel in require(base, "kernels", "baseline"):
        name = require(kernel, "name", "baseline kernel")
        if name not in cand_kernels:
            rc |= fail(f"{name}: kernel missing from the candidate")
            continue
        rc |= check_drop(
            f"{name} decoded_steps_per_sec",
            require(kernel, "decoded_steps_per_sec", f"baseline kernel {name}"),
            require(cand_kernels[name], "decoded_steps_per_sec",
                    f"candidate kernel {name}"),
            max_drop_pct,
        )
    return rc


# JIT-over-decoded floor of every hardened call kernel with a seeded RNG:
# the hardened prologue (P-BOX loads, frame slicing, the rand draw) must
# stay in native code or one shim call away from it.
CALL_KERNEL_FLOOR = 3.0

# Ceiling on harden_overhead_jit (JIT hardened/plain time) per seeded
# hardened call kernel, keyed by its rng: 1.25x the highest value of five
# interp_throughput runs after the hardened prologue went native (the
# chain's healthy draw, P-BOX rows from read-only data, zeroing only the
# slots read before written), so losing any of that fails the gate; each
# later set of five runs may only lower a ceiling (aes1 kept 2.84, which
# 1.25x its next five runs' 2.296 would have raised). The current values
# are 1.25x the highest of five runs after segment heads that cross a
# cancel-poll point began charging natively (no cancel pending, fuel
# enough), rounded to two places.
HARDEN_OVERHEAD_JIT_CEILING = {
    "pseudo": 2.29,
    "aes1": 2.58,
    "aes10": 3.04,
    "chain": 2.01,
}


def check_interp_jit(base, cand, max_drop_pct):
    if require(cand, "jit_available", "candidate") is not True:
        return ok("jit unavailable on this runner; nothing gated")
    rc = 0
    for kernel in require(cand, "kernels", "candidate"):
        name = require(kernel, "name", "candidate kernel")
        dec = require(kernel, "digest_decoded", f"candidate kernel {name}")
        jit = require(kernel, "digest_jit", f"candidate kernel {name}")
        if dec != jit:
            rc |= fail(
                f"{name}: jit digest {jit} != decoded digest {dec} "
                "(identity violation — the JIT changed observable behavior)"
            )
        else:
            rc |= ok(f"{name}: jit digest equals decoded digest ({dec})")
    cand_min = require(cand, "min_jit_speedup_vs_decoded", "candidate")
    if require(base, "jit_available", "baseline") is True:
        rc |= check_drop(
            "min_jit_speedup_vs_decoded",
            require(base, "min_jit_speedup_vs_decoded", "baseline"),
            cand_min,
            max_drop_pct,
        )
    else:
        rc |= ok("baseline has no jit measurements; gating the floor only")
    if not isinstance(cand_min, (int, float)) or cand_min < 2.0:
        rc |= fail(
            f"min_jit_speedup_vs_decoded {cand_min} is below the 2.0x floor"
        )
    else:
        rc |= ok(f"min_jit_speedup_vs_decoded {cand_min:.2f} >= 2.0x floor")
    calls = require(cand, "call_kernels", "candidate")
    if not calls:
        rc |= fail("candidate has no call_kernels")
    for kernel in calls:
        name = require(kernel, "name", "candidate call kernel")
        dec = require(kernel, "digest_decoded", f"candidate call kernel {name}")
        jit = require(kernel, "digest_jit", f"candidate call kernel {name}")
        if dec != jit:
            rc |= fail(f"{name}: jit digest {jit} != decoded digest {dec} "
                       "(identity violation)")
        else:
            rc |= ok(f"{name}: jit digest equals decoded digest ({dec})")
        hardened = require(kernel, "hardened", f"candidate call kernel {name}")
        if hardened and kernel.get("rng") != "rdrand":
            speedup = require(kernel, "jit_speedup_vs_decoded",
                              f"candidate call kernel {name}")
            if (not isinstance(speedup, (int, float))
                    or speedup < CALL_KERNEL_FLOOR):
                rc |= fail(f"{name}: jit_speedup_vs_decoded {speedup} is "
                           f"below the {CALL_KERNEL_FLOOR}x floor")
            else:
                rc |= ok(f"{name}: jit_speedup_vs_decoded {speedup:.2f} >= "
                         f"{CALL_KERNEL_FLOOR}x floor")
            rng = kernel.get("rng")
            ceiling = HARDEN_OVERHEAD_JIT_CEILING.get(rng)
            overhead = require(kernel, "harden_overhead_jit",
                               f"candidate call kernel {name}")
            if ceiling is None:
                rc |= fail(f"{name}: no harden_overhead_jit ceiling for "
                           f"rng {rng!r}")
            elif (not isinstance(overhead, (int, float))
                    or overhead > ceiling):
                rc |= fail(f"{name}: harden_overhead_jit {overhead} is above "
                           f"the {ceiling}x ceiling")
            else:
                rc |= ok(f"{name}: harden_overhead_jit {overhead:.3f} <= "
                         f"{ceiling}x ceiling")
    return rc


def check_attack_corpus(base, cand, max_drop_pct):
    del max_drop_pct  # rate floors are absolute, not baseline-relative
    rc = 0

    # The committed baseline is required to be a real corpus: at least 200
    # distinct specs. A shrunken baseline would quietly weaken every gate
    # below, so it is an error in its own right.
    base_specs = require(base, "specs", "baseline")
    if not isinstance(base_specs, int) or base_specs < 200:
        rc |= fail(f"baseline specs {base_specs!r} is below the 200-spec "
                   "floor for a committed corpus")

    # Determinism verdicts computed in-process by the corpus driver.
    if require(cand, "rerun_checked", "candidate") is True:
        if require(cand, "rerun_bit_identical", "candidate") is not True:
            rc |= fail("candidate rerun was not bit-identical "
                       "(determinism break)")
        else:
            rc |= ok("candidate rerun bit-identical")
    else:
        rc |= ok("candidate skipped the rerun check (-no-rerun)")
    cand_specs = require(cand, "specs", "candidate")
    distinct = require(cand, "distinct_specs", "candidate")
    if distinct != cand_specs:
        rc |= fail(f"candidate enumerated {distinct} distinct specs of "
                   f"{cand_specs} (generator collision)")
    else:
        rc |= ok(f"candidate specs all distinct ({distinct})")

    # Defeat-rate policy. The table is keyed by defense name so a renamed
    # or missing column is an explicit gate error.
    rates = {}
    for entry in require(cand, "defenses", "candidate"):
        name = require(entry, "defense", "candidate defense entry")
        rates[name] = require(entry, "defeat_rate",
                              f"candidate defense {name}")
        if require(entry, "attacks", f"candidate defense {name}") \
                != cand_specs:
            rc |= fail(f"{name}: ran {entry['attacks']} attacks, "
                       f"expected {cand_specs}")
    for needed in ("none", "smokestack"):
        if needed not in rates:
            raise GateError(f"candidate: no defeat-rate entry for {needed!r}")
    if rates["none"] > 0.05:
        rc |= fail(f"undefended defeat rate {rates['none']:.4f} exceeds "
                   "0.05 — the compiled attacks themselves are broken")
    else:
        rc |= ok(f"undefended defeat rate {rates['none']:.4f} <= 0.05 "
                 f"(attacks land {100 * (1 - rates['none']):.1f}%)")
    if rates["smokestack"] < 0.99:
        rc |= fail(f"smokestack defeat rate {rates['smokestack']:.4f} is "
                   "below the 0.99 floor")
    else:
        rc |= ok(f"smokestack defeat rate {rates['smokestack']:.4f} "
                 ">= 0.99")
    for name, rate in rates.items():
        if name == "smokestack":
            continue
        if rates["smokestack"] <= rate:
            rc |= fail(f"smokestack defeat rate {rates['smokestack']:.4f} "
                       f"does not strictly beat {name} ({rate:.4f})")
        else:
            rc |= ok(f"smokestack strictly beats {name} "
                     f"({rates['smokestack']:.4f} > {rate:.4f})")

    # Bit-exact digest comparison when the corpus coordinates match. The
    # digest folds every spec fingerprint and every cell outcome, so any
    # mismatch is a real behavior change in the generator, the lowering,
    # the VM, or a defense — never noise.
    if same_params(base, cand, ["root_seed", "specs", "budget"]):
        base_digest = require(base, "digest", "baseline")
        cand_digest = require(cand, "digest", "candidate")
        if base_digest != cand_digest:
            rc |= fail(f"corpus digest {cand_digest} != baseline "
                       f"{base_digest} for identical parameters "
                       "(determinism break)")
        else:
            rc |= ok(f"corpus digest matches baseline exactly "
                     f"({base_digest})")
    else:
        rc |= ok("digest not compared (corpus parameters differ from "
                 "baseline)")
    return rc


def check_request_reset(base, cand, max_drop_pct):
    rc = 0
    base_runs = len(base.get("restore_speedup_runs", [None]))
    cand_runs = len(cand.get("restore_speedup_runs", [None]))
    if cand_runs < base_runs:
        rc |= fail(f"restore_speedup_vs_rebuild is a median over {cand_runs} "
                   f"repetition(s), the baseline's over {base_runs}")
    return rc | check_drop(
        f"restore_speedup_vs_rebuild (median of {cand_runs})",
        require(base, "restore_speedup_vs_rebuild", "baseline"),
        require(cand, "restore_speedup_vs_rebuild", "candidate"),
        max_drop_pct,
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--max-drop-pct", type=float, default=25.0)
    args = ap.parse_args()

    try:
        with open(args.baseline) as f:
            base = json.load(f)
        with open(args.candidate) as f:
            cand = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot load bench JSON: {e}")

    kind_of = lambda d: d.get("bench") or d.get("benchmark")
    kind = kind_of(base)
    if kind is None:
        return fail(
            f"{args.baseline}: no 'bench'/'benchmark' key; cannot gate"
        )
    if kind != kind_of(cand):
        return fail(
            f"bench kind mismatch: baseline {kind}, candidate {kind_of(cand)}"
        )

    checks = {
        "soak": check_soak,
        "interp_throughput": check_interp,
        "interp_jit": check_interp_jit,
        "request_reset": check_request_reset,
        "attack_corpus": check_attack_corpus,
    }
    if kind not in checks:
        return fail(f"unknown bench kind {kind!r}")
    print(f"checking {kind}: {args.candidate} against {args.baseline}")
    try:
        return checks[kind](base, cand, args.max_drop_pct)
    except GateError as e:
        return fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
