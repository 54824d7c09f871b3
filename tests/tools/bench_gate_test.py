#!/usr/bin/env python3
"""Exercises tools/check_bench_regression.py on the committed baselines.

  * every committed BENCH_*.json must pass against itself;
  * each failure the soak gate promises (a pass off the reference digest,
    a digest change at equal parameters, a broken accounting identity,
    shard kills without a restart, a throughput drop) must print a
    REGRESSION line and exit 1;
  * an old-shape per-mode soak file must be a clear REGRESSION line, not
    a Python traceback;
  * the interp_jit call kernels: a JIT digest off the decoded one, a
    hardened kernel under the 3.0x floor (even just, at 2.9x), a seeded
    hardened kernel whose harden_overhead_jit is above its ceiling (even
    just), or no call_kernels at all must each be a REGRESSION, and
    hardened kernels exactly at the floor or at their ceilings pass;
  * interp_throughput: a 10% decoded_steps_per_sec drop passes, a drop of
    more than 25% on one kernel or a kernel without the field is a
    REGRESSION;
  * the scaling sweep: a 10% slowdown of every run passes, an injected
    30% slowdown of every run is a REGRESSION, and so is a candidate
    whose medians come from fewer runs than the baseline's;
  * request_reset: a 30% lower speedup median, or one over fewer
    repetitions than the baseline's, is a REGRESSION.

Usage: bench_gate_test.py REPO_ROOT
"""

import copy
import glob
import json
import os
import subprocess
import sys
import tempfile

ROOT = sys.argv[1]
GATE = os.path.join(ROOT, "tools", "check_bench_regression.py")
failures = []


def gate(base, cand):
    r = subprocess.run([sys.executable, GATE, base, cand],
                       capture_output=True, text=True)
    return r.returncode, r.stdout + r.stderr


def expect(cond, what, out):
    print(("ok: " if cond else "FAIL: ") + what)
    if not cond:
        failures.append(what)
        print(out)


def expect_regression(base, cand, what):
    rc, out = gate(base, cand)
    expect(rc == 1 and "REGRESSION:" in out and "Traceback" not in out,
           what, out)


def load(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


def main():
    baselines = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    expect(len(baselines) >= 3, "committed baselines found", baselines)
    for path in baselines:
        rc, out = gate(path, path)
        expect(rc == 0 and "REGRESSION" not in out,
               f"{os.path.basename(path)} passes against itself", out)

    soak_path = os.path.join(ROOT, "BENCH_soak.json")
    net_path = os.path.join(ROOT, "BENCH_netsoak.json")
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, data):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(data, f)
            return path

        def mutated(name, mutate):
            data = copy.deepcopy(load(name))
            mutate(data)
            return write("cand_" + name, data)

        def flip_last_digest(d):
            p = d["passes"][-1]
            p["digest"] = "0x%016x" % (int(p["digest"], 16) ^ 1)

        def flip_all_digests(d):
            for p in d["passes"]:
                p["digest"] = "0x%016x" % (int(p["digest"], 16) ^ 1)
            d["digest"] = d["passes"][0]["digest"]

        def break_identity(d):
            d["passes"][1]["identity_holds"] = False

        def kills_without_restart(d):
            wire = d["passes"][-1]["wire"]
            wire["shard_kills_enabled"] = True
            wire["shard_restarts"] = 0

        def halve_throughput(d):
            d["passes"][0]["requests_per_sec"] /= 2

        expect_regression(soak_path,
                          mutated("BENCH_soak.json", flip_last_digest),
                          "a pass off the reference digest is a REGRESSION")
        expect_regression(soak_path,
                          mutated("BENCH_soak.json", flip_all_digests),
                          "a digest change at equal parameters is a "
                          "REGRESSION")
        expect_regression(soak_path,
                          mutated("BENCH_soak.json", break_identity),
                          "identity_holds false is a REGRESSION")
        expect_regression(net_path,
                          mutated("BENCH_netsoak.json",
                                  kills_without_restart),
                          "shard kills with zero restarts are a REGRESSION")
        expect_regression(soak_path,
                          mutated("BENCH_soak.json", halve_throughput),
                          "a 50% requests_per_sec drop is a REGRESSION")

        jit_path = os.path.join(ROOT, "BENCH_interp_jit.json")

        def flip_call_digest(d):
            k = d["call_kernels"][-1]
            k["digest_jit"] = "%016x" % (int(k["digest_jit"], 16) ^ 1)

        def hardened_calls_at(speedup):
            def mutate(d):
                for k in d["call_kernels"]:
                    if k["hardened"]:
                        k["jit_speedup_vs_decoded"] = speedup
            return mutate

        def drop_call_kernels(d):
            del d["call_kernels"]

        sys.path.insert(0, os.path.join(ROOT, "tools"))
        from check_bench_regression import HARDEN_OVERHEAD_JIT_CEILING

        def seeded_overheads_at_ceiling(extra):
            def mutate(d):
                for k in d["call_kernels"]:
                    if k["hardened"] and k["rng"] != "rdrand":
                        k["harden_overhead_jit"] = (
                            HARDEN_OVERHEAD_JIT_CEILING[k["rng"]] + extra)
            return mutate

        def chain_overhead_above_ceiling(d):
            for k in d["call_kernels"]:
                if k["rng"] == "chain":
                    k["harden_overhead_jit"] = (
                        HARDEN_OVERHEAD_JIT_CEILING["chain"] + 0.01)

        expect_regression(jit_path,
                          mutated("BENCH_interp_jit.json", flip_call_digest),
                          "a call-kernel JIT digest off decoded is a "
                          "REGRESSION")
        expect_regression(jit_path,
                          mutated("BENCH_interp_jit.json",
                                  hardened_calls_at(1.2)),
                          "a hardened call kernel at 1.2x is a REGRESSION")
        expect_regression(jit_path,
                          mutated("BENCH_interp_jit.json",
                                  hardened_calls_at(1.9)),
                          "a hardened call kernel at 1.9x is a REGRESSION")
        expect_regression(jit_path,
                          mutated("BENCH_interp_jit.json",
                                  hardened_calls_at(2.9)),
                          "a hardened call kernel at 2.9x (under the 3.0x "
                          "floor) is a REGRESSION")
        rc, out = gate(jit_path, mutated("BENCH_interp_jit.json",
                                         hardened_calls_at(3.0)))
        expect(rc == 0 and "REGRESSION" not in out,
               "hardened call kernels exactly at the 3.0x floor pass", out)
        rc, out = gate(jit_path, mutated("BENCH_interp_jit.json",
                                         seeded_overheads_at_ceiling(0.0)))
        expect(rc == 0 and "REGRESSION" not in out,
               "seeded hardened call kernels exactly at their "
               "harden_overhead_jit ceilings pass", out)
        expect_regression(jit_path,
                          mutated("BENCH_interp_jit.json",
                                  chain_overhead_above_ceiling),
                          "the chain kernel just above its "
                          "harden_overhead_jit ceiling is a REGRESSION")
        expect_regression(jit_path,
                          mutated("BENCH_interp_jit.json",
                                  seeded_overheads_at_ceiling(0.5)),
                          "every seeded hardened call kernel 0.5 above its "
                          "harden_overhead_jit ceiling is a REGRESSION")
        expect_regression(jit_path,
                          mutated("BENCH_interp_jit.json", drop_call_kernels),
                          "an interp_jit file without call_kernels is a "
                          "REGRESSION line, not a traceback")

        interp_path = os.path.join(ROOT, "BENCH_interp.json")

        def decoded_rate_times(factor, kernels=None):
            def mutate(d):
                for k in d["kernels"][:kernels]:
                    k["decoded_steps_per_sec"] *= factor
            return mutate

        def drop_decoded_rate(d):
            del d["kernels"][0]["decoded_steps_per_sec"]

        rc, out = gate(interp_path,
                       mutated("BENCH_interp.json", decoded_rate_times(0.9)))
        expect(rc == 0 and "REGRESSION" not in out,
               "a 10% decoded_steps_per_sec drop passes the 25% gate", out)
        expect_regression(interp_path,
                          mutated("BENCH_interp.json",
                                  decoded_rate_times(0.7, kernels=1)),
                          "a 30% decoded_steps_per_sec drop on one kernel "
                          "is a REGRESSION")
        expect_regression(interp_path,
                          mutated("BENCH_interp.json", drop_decoded_rate),
                          "a kernel without decoded_steps_per_sec is a "
                          "REGRESSION line, not a traceback")

        scaling_path = os.path.join(ROOT, "BENCH_scaling.json")

        def slow_every_run(factor):
            def mutate(d):
                for p in d["passes"]:
                    p["requests_per_sec_runs"] = [
                        r * factor for r in p["requests_per_sec_runs"]]
                    p["requests_per_sec"] *= factor
            return mutate

        def single_runs(d):
            for p in d["passes"]:
                p["requests_per_sec_runs"] = p["requests_per_sec_runs"][:1]

        rc, out = gate(scaling_path,
                       mutated("BENCH_scaling.json", slow_every_run(0.9)))
        expect(rc == 0 and "REGRESSION" not in out,
               "a 10% slowdown of every scaling run passes", out)
        expect_regression(scaling_path,
                          mutated("BENCH_scaling.json", slow_every_run(0.7)),
                          "an injected 30% slowdown of every scaling run is "
                          "a REGRESSION")
        expect_regression(scaling_path,
                          mutated("BENCH_scaling.json", single_runs),
                          "scaling medians over fewer runs than the "
                          "baseline's are a REGRESSION")

        reset_path = os.path.join(ROOT, "BENCH_reset.json")

        def slow_reset(d):
            d["restore_speedup_vs_rebuild"] *= 0.7

        def single_reset_run(d):
            d["restore_speedup_runs"] = d["restore_speedup_runs"][:1]

        expect_regression(reset_path,
                          mutated("BENCH_reset.json", slow_reset),
                          "a 30% lower reset speedup median is a REGRESSION")
        expect_regression(reset_path,
                          mutated("BENCH_reset.json", single_reset_run),
                          "a reset speedup median over fewer repetitions "
                          "than the baseline's is a REGRESSION")

        old = write("old_soak_chaos.json", {
            "bench": "soak_chaos", "requests": 10000, "fault_rate": 0.08,
            "seed": 7, "workers": 4, "digest": "0xedbb4c9ce70f8fc2",
            "requests_per_sec": 97713.8,
        })
        expect_regression(soak_path, old,
                          "an old-shape soak_chaos candidate is a "
                          "REGRESSION line, not a traceback")
        expect_regression(old, old,
                          "an old-shape soak_chaos baseline is a "
                          "REGRESSION line, not a traceback")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
