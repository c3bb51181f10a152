#!/usr/bin/env python3
"""Self-test for fedda_analyze.py, in two parts.

Part A (always runs, no libclang needed): the check layer is pure Python
over the JSON IR, so every rule's logic — walk policy, taint/guard
matching, lock-graph cycles, scoping, allowlist namespace — is pinned
against hand-built IR models.

Part B (runs wherever libclang + python3-clang are installed, e.g. the CI
static-analyze and lint jobs; skips cleanly elsewhere): parses the fixture
battery under tests/static/analyze/fixtures/ through the real extraction
layer via a generated miniature compile_commands.json and asserts every
flag_* fixture raises exactly its rule and every pass_* fixture stays
clean. The fixture surface inventory comes from `fedda-analyze-entry`
marker comments inside the fixtures themselves.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import fedda_analyze as az  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
FIXTURES = REPO_ROOT / "tests" / "static" / "analyze" / "fixtures"

ENTRY_MARKER_RE = re.compile(
    r"//\s*fedda-analyze-entry:\s*(\w+)\s+([\w-]+)")

RULE_OF_DIR = {
    "tb_abort": "az-tb-abort",
    "tb_alloc": "az-tb-alloc",
    "lock_cycle": "az-lock-cycle",
    "unordered": "az-unordered-iter",
    "fp_contract": "az-fp-contract",
    "status_flow": "az-status-ignored",
}


def mkfn(**kwargs) -> dict:
    fact = {
        "usr": kwargs.get("usr", kwargs["name"]),
        "name": kwargs["name"],
        "display": kwargs.get("display", kwargs["name"]),
        "file": kwargs.get("file", "src/net/x.cc"),
        "tu": kwargs.get("tu", kwargs.get("file", "src/net/x.cc")),
        "line": kwargs.get("line", 1),
        "end_line": kwargs.get("end_line", 100),
        "calls": kwargs.get("calls", []),
        "aborts": kwargs.get("aborts", []),
        "locks": kwargs.get("locks", []),
        "lock_pairs": kwargs.get("lock_pairs", []),
        "allocs": kwargs.get("allocs", []),
        "taints": kwargs.get("taints", {}),
        "guards": kwargs.get("guards", []),
        "unordered_fors": kwargs.get("unordered_fors", []),
        "contractions": kwargs.get("contractions", []),
        "status_vars": kwargs.get("status_vars", []),
    }
    return fact


def model_of(*functions, tus=None) -> dict:
    return {"tus": tus or {}, "functions": list(functions)}


def call(name, usr=None, line=1, held=None):
    return {"name": name, "usr": usr or name, "line": line,
            "held": held or []}


SURFACE = [{"name": "DecodeX", "file": "src/net/x.h", "line": 1,
            "kind": "decoder"}]


def rules_of(findings):
    return sorted({f.rule for f in findings})


class TrustWalkTest(unittest.TestCase):
    def test_abort_in_seed_is_flagged_with_chain(self):
        model = model_of(mkfn(
            name="DecodeX", file="src/net/x.cc",
            aborts=[{"line": 5, "macro": "FEDDA_CHECK"}]))
        findings = az.check_trust_boundary(model, SURFACE)
        self.assertEqual(["az-tb-abort"], rules_of(findings))
        self.assertIn("DecodeX", findings[0].message)

    def test_abort_two_hops_down_is_flagged(self):
        model = model_of(
            mkfn(name="DecodeX", file="src/net/x.cc",
                 calls=[call("Helper")]),
            mkfn(name="Helper", file="src/net/y.cc",
                 aborts=[{"line": 9, "macro": "FEDDA_CHECK_EQ"}]))
        findings = az.check_trust_boundary(model, SURFACE)
        self.assertEqual(1, len(findings))
        self.assertEqual("src/net/y.cc", findings[0].path)
        self.assertIn("Helper <- DecodeX", findings[0].message)

    def test_walk_stops_at_boundary_modules(self):
        # Client::Update lives outside the boundary; its CHECK guards
        # in-process state, not wire bytes.
        model = model_of(
            mkfn(name="DecodeX", file="src/net/x.cc",
                 calls=[call("Update")]),
            mkfn(name="Update", file="src/fl/client.cc",
                 aborts=[{"line": 3, "macro": "FEDDA_CHECK"}]))
        self.assertEqual([], az.check_trust_boundary(model, SURFACE))

    def test_unreachable_abort_not_flagged(self):
        model = model_of(
            mkfn(name="DecodeX", file="src/net/x.cc"),
            mkfn(name="ServerSetup", file="src/net/x.cc",
                 aborts=[{"line": 3, "macro": "FEDDA_CHECK"}]))
        self.assertEqual([], az.check_trust_boundary(model, SURFACE))

    def test_byte_entry_kind_seeds_the_walk(self):
        surface = [{"name": "ServeRound", "file": "src/net/t.h",
                    "line": 1, "kind": "byte-entry"}]
        model = model_of(mkfn(
            name="ServeRound", file="src/net/t.cc",
            aborts=[{"line": 2, "macro": "FEDDA_CHECK"}]))
        findings = az.check_trust_boundary(model, surface)
        self.assertEqual(["az-tb-abort"], rules_of(findings))

    def test_surface_stem_pair_is_boundary(self):
        # wire.h on the surface makes wire.cc a boundary module.
        surface = [{"name": "Deserialize", "file": "src/fl/wire.h",
                    "line": 1, "kind": "decoder"}]
        model = model_of(
            mkfn(name="Deserialize", file="src/fl/wire.cc",
                 calls=[call("UnpackBits")]),
            mkfn(name="UnpackBits", file="src/fl/wire.cc",
                 aborts=[{"line": 52, "macro": "FEDDA_CHECK_GE"}]))
        findings = az.check_trust_boundary(model, surface)
        self.assertEqual(1, len(findings))


class TrustAllocTest(unittest.TestCase):
    def alloc_model(self, allocs, taints=None, guards=None):
        return model_of(mkfn(
            name="DecodeX", file="src/net/x.cc", allocs=allocs,
            taints=taints or {}, guards=guards or []))

    def test_direct_read_size_is_flagged(self):
        model = self.alloc_model([{
            "line": 7, "sink": "resize", "paths": [], "direct": True,
            "recv": "out"}])
        self.assertEqual(["az-tb-alloc"],
                         rules_of(az.check_trust_boundary(model, SURFACE)))

    def test_tainted_unguarded_is_flagged(self):
        model = self.alloc_model(
            [{"line": 9, "sink": "reserve", "paths": ["count"],
              "direct": False, "recv": "v"}],
            taints={"count": 5})
        findings = az.check_trust_boundary(model, SURFACE)
        self.assertEqual(["az-tb-alloc"], rules_of(findings))
        self.assertIn("`count`", findings[0].message)

    def test_guard_between_taint_and_alloc_passes(self):
        model = self.alloc_model(
            [{"line": 9, "sink": "reserve", "paths": ["count"],
              "direct": False, "recv": "v"}],
            taints={"count": 5},
            guards=[{"line": 7, "text": "if(count>r.remaining())"}])
        self.assertEqual([], az.check_trust_boundary(model, SURFACE))

    def test_guard_on_other_variable_does_not_count(self):
        model = self.alloc_model(
            [{"line": 9, "sink": "reserve", "paths": ["count"],
              "direct": False, "recv": "v"}],
            taints={"count": 5},
            guards=[{"line": 7, "text": "if(other>r.remaining())"}])
        self.assertEqual(["az-tb-alloc"],
                         rules_of(az.check_trust_boundary(model, SURFACE)))

    def test_guard_before_taint_does_not_count(self):
        model = self.alloc_model(
            [{"line": 9, "sink": "reserve", "paths": ["count"],
              "direct": False, "recv": "v"}],
            taints={"count": 5},
            guards=[{"line": 3, "text": "if(count>0)"}])
        self.assertEqual(["az-tb-alloc"],
                         rules_of(az.check_trust_boundary(model, SURFACE)))


class LockOrderTest(unittest.TestCase):
    def test_ab_ba_cycle_flagged(self):
        model = model_of(
            mkfn(name="First", lock_pairs=[["A", "B", 4]],
                 locks=[{"id": "A", "line": 3}, {"id": "B", "line": 4}]),
            mkfn(name="Second", lock_pairs=[["B", "A", 8]],
                 locks=[{"id": "B", "line": 7}, {"id": "A", "line": 8}]))
        findings = az.check_lock_order(model)
        self.assertEqual(["az-lock-cycle"], rules_of(findings))
        self.assertIn("A", findings[0].message)
        self.assertIn("B", findings[0].message)

    def test_interprocedural_cycle_flagged(self):
        model = model_of(
            mkfn(name="TakeA", locks=[{"id": "A", "line": 2}]),
            mkfn(name="TakeB", locks=[{"id": "B", "line": 2}]),
            mkfn(name="Publish", locks=[{"id": "B", "line": 3}],
                 calls=[call("TakeA", line=4, held=["B"])]),
            mkfn(name="Reindex", locks=[{"id": "A", "line": 3}],
                 calls=[call("TakeB", line=4, held=["A"])]))
        self.assertEqual(["az-lock-cycle"],
                         rules_of(az.check_lock_order(model)))

    def test_transitive_acquires_propagate(self):
        # Publish holds B and calls Mid which calls TakeA: B->A. Reindex
        # holds A, locks B directly: A->B. Cycle through one indirection.
        model = model_of(
            mkfn(name="TakeA", locks=[{"id": "A", "line": 2}]),
            mkfn(name="Mid", calls=[call("TakeA", line=2)]),
            mkfn(name="Publish", locks=[{"id": "B", "line": 3}],
                 calls=[call("Mid", line=4, held=["B"])]),
            mkfn(name="Reindex", lock_pairs=[["A", "B", 5]],
                 locks=[{"id": "A", "line": 4}, {"id": "B", "line": 5}]))
        self.assertEqual(["az-lock-cycle"],
                         rules_of(az.check_lock_order(model)))

    def test_consistent_order_clean(self):
        model = model_of(
            mkfn(name="First", lock_pairs=[["A", "B", 4]],
                 locks=[{"id": "A", "line": 3}, {"id": "B", "line": 4}]),
            mkfn(name="Second", lock_pairs=[["A", "B", 8]],
                 locks=[{"id": "A", "line": 7}, {"id": "B", "line": 8}]))
        self.assertEqual([], az.check_lock_order(model))

    def test_self_deadlock_flagged(self):
        model = model_of(mkfn(
            name="Relock", locks=[{"id": "A", "line": 2}],
            lock_pairs=[["A", "A", 3]]))
        self.assertEqual(["az-lock-cycle"],
                         rules_of(az.check_lock_order(model)))


class UnorderedIterTest(unittest.TestCase):
    def loop(self):
        return [{"line": 4, "container": "std::unordered_map<int, float>"}]

    def test_fl_path_always_scoped(self):
        model = model_of(mkfn(name="Total", file="src/fl/a.cc",
                              unordered_fors=self.loop()))
        self.assertEqual(["az-unordered-iter"],
                         rules_of(az.check_unordered_iteration(model)))

    def test_serialize_function_scoped_anywhere(self):
        model = model_of(mkfn(name="SerializeTable", file="src/obs/a.cc",
                              unordered_fors=self.loop()))
        self.assertEqual(["az-unordered-iter"],
                         rules_of(az.check_unordered_iteration(model)))

    def test_outside_scope_clean(self):
        model = model_of(mkfn(name="CountLarge", file="src/obs/a.cc",
                              unordered_fors=self.loop()))
        self.assertEqual([], az.check_unordered_iteration(model))


class FpContractTest(unittest.TestCase):
    def test_contraction_without_flag_flagged(self):
        model = model_of(
            mkfn(name="Axpy", file="src/tensor/kernels/scalar.cc",
                 tu="src/tensor/kernels/scalar.cc",
                 contractions=[{"line": 25}]),
            tus={"src/tensor/kernels/scalar.cc":
                 {"fp_contract_off": False}})
        self.assertEqual(["az-fp-contract"],
                         rules_of(az.check_fp_contract(model)))

    def test_contraction_with_flag_clean(self):
        model = model_of(
            mkfn(name="Axpy", file="src/tensor/kernels/scalar.cc",
                 tu="src/tensor/kernels/scalar.cc",
                 contractions=[{"line": 25}]),
            tus={"src/tensor/kernels/scalar.cc":
                 {"fp_contract_off": True}})
        self.assertEqual([], az.check_fp_contract(model))

    def test_shared_loop_checked_per_including_tu(self):
        # lane_kernels.inc is compiled into two TUs under two namespaces,
        # so each inclusion is its own function and is held to the flags
        # of the TU that includes it.
        shared = "src/tensor/kernels/lane_kernels.inc"
        model = model_of(
            mkfn(name="AccumulateAxpy", usr="scalar::AccumulateAxpy",
                 file=shared, tu="src/tensor/kernels/scalar.cc",
                 contractions=[{"line": 40}]),
            mkfn(name="AccumulateAxpy", usr="avx2::AccumulateAxpy",
                 file=shared, tu="src/tensor/kernels/avx2.cc",
                 contractions=[{"line": 40}]),
            tus={"src/tensor/kernels/scalar.cc": {"fp_contract_off": True},
                 "src/tensor/kernels/avx2.cc": {"fp_contract_off": False}})
        findings = az.check_fp_contract(model)
        self.assertEqual(["az-fp-contract"], rules_of(findings))
        self.assertIn("src/tensor/kernels/avx2.cc", findings[0].message)

    def test_contraction_outside_kernels_ignored(self):
        model = model_of(
            mkfn(name="Loss", file="src/fl/client.cc",
                 tu="src/fl/client.cc", contractions=[{"line": 9}]),
            tus={"src/fl/client.cc": {"fp_contract_off": False}})
        self.assertEqual([], az.check_fp_contract(model))


class StatusFlowTest(unittest.TestCase):
    def test_never_used_flagged(self):
        model = model_of(mkfn(name="Flush", status_vars=[
            {"name": "st", "line": 4, "type": "Status", "uses": 0}]))
        findings = az.check_status_flow(model)
        self.assertEqual(["az-status-ignored"], rules_of(findings))
        self.assertIn("st", findings[0].message)

    def test_used_clean(self):
        model = model_of(mkfn(name="Flush", status_vars=[
            {"name": "st", "line": 4, "type": "Status", "uses": 2}]))
        self.assertEqual([], az.check_status_flow(model))


class AllowlistTest(unittest.TestCase):
    def apply(self, findings, allow_text):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            allow = root / "allow.txt"
            allow.write_text(allow_text)
            return az.apply_allowlist(findings, allow, root)

    def finding(self):
        return az.Finding("az-tb-abort", "src/fl/wire.cc", 52, "msg")

    def test_entry_suppresses(self):
        kept = self.apply(
            [self.finding()],
            "az-tb-abort src/fl/wire.cc -- callers bound count first\n")
        self.assertEqual([], kept)

    def test_missing_justification_flagged(self):
        kept = self.apply([self.finding()],
                          "az-tb-abort src/fl/wire.cc --\n")
        self.assertEqual(
            sorted(["allowlist-missing-justification", "az-tb-abort"]),
            rules_of(kept))

    def test_unused_az_entry_flagged(self):
        kept = self.apply([], "az-tb-abort src/fl/other.cc -- stale\n")
        self.assertEqual(["allowlist-unused"], rules_of(kept))

    def test_lint_owned_entries_ignored(self):
        kept = self.apply([], "no-throw src/fl/wire.cc -- lint's call\n")
        self.assertEqual([], kept)


def libclang_available() -> bool:
    cindex, _ = az.load_cindex()
    return cindex is not None


@unittest.skipUnless(libclang_available(),
                     "libclang + python3-clang not installed "
                     "(the CI static-analyze job runs this)")
class FixtureBatteryTest(unittest.TestCase):
    """End-to-end: real libclang extraction over the fixture tree."""

    @classmethod
    def setUpClass(cls):
        fixtures = [p for p in sorted(FIXTURES.rglob("*.cc"))]
        compdb = []
        for path in fixtures:
            rel = path.relative_to(FIXTURES).as_posix()
            flags = "-ffp-contract=off " if "pass_with_flag" in rel else ""
            compdb.append({
                "directory": str(FIXTURES),
                "command": f"clang++ -std=c++17 -I{FIXTURES} {flags}"
                           f"-c {rel}",
                "file": rel,
            })
        cls.tmp = tempfile.TemporaryDirectory()
        compdb_path = Path(cls.tmp.name) / "compile_commands.json"
        compdb_path.write_text(json.dumps(compdb))

        surface = []
        for path in fixtures:
            rel = path.relative_to(FIXTURES).as_posix()
            for match in ENTRY_MARKER_RE.finditer(path.read_text()):
                surface.append({"name": match.group(1), "file": rel,
                                "line": 1, "kind": match.group(2)})

        cindex, why = az.load_cindex()
        assert cindex is not None, why
        units = az.compile_units(compdb_path, FIXTURES, scope="")
        extractor = az.Extractor(cindex, FIXTURES)
        model = extractor.run(units)
        assert not extractor.errors, extractor.errors
        cls.model = model
        cls.findings = az.run_checks(model, surface)
        cls.by_path = {}
        for finding in cls.findings:
            cls.by_path.setdefault(finding.path, []).append(finding)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_every_flag_fixture_raises_its_rule(self):
        for path in sorted(FIXTURES.rglob("flag_*.cc")):
            rel = path.relative_to(FIXTURES).as_posix()
            rule = RULE_OF_DIR[rel.split("/")[0]]
            got = [f.rule for f in self.by_path.get(rel, [])]
            self.assertIn(rule, got,
                          f"{rel}: expected {rule}, got {got or 'nothing'}")

    def test_every_pass_fixture_is_clean(self):
        for path in sorted(FIXTURES.rglob("pass_*.cc")):
            rel = path.relative_to(FIXTURES).as_posix()
            got = [f.render() for f in self.by_path.get(rel, [])]
            self.assertEqual([], got, f"{rel} must be clean")

    def test_flag_fixtures_raise_nothing_unexpected(self):
        expected = set(RULE_OF_DIR.values())
        for finding in self.findings:
            self.assertIn(finding.rule, expected, finding.render())


if __name__ == "__main__":
    unittest.main(verbosity=2)
