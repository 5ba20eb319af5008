#!/usr/bin/env python3
"""Seeded-violation self-tests for simlint.

Each rule gets at least one fixture that MUST fire and one that must
stay quiet — so a refactor of the linter that silently stops detecting
a class of nondeterminism fails CI, exactly like a broken assertion in
a C++ test. Run directly or via ctest (`simlint_selftest`).
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import simlint  # noqa: E402


def rules_of(violations):
    return sorted({v.rule for v in violations})


def lint(text, file_allow=None):
    return simlint.lint_text("fixture.cc", text, file_allow=file_allow)


class StripTest(unittest.TestCase):
    def test_comments_and_strings_are_blanked(self):
        text = (
            '// rand() in a comment\n'
            '/* std::random_device in a block\n   comment */\n'
            'const char* s = "rand() in a string";\n')
        self.assertEqual(lint(text), [])

    def test_line_structure_is_preserved(self):
        text = "int a; /* x\ny */ rand();\n"
        stripped = simlint.strip_comments_and_strings(text)
        self.assertEqual(text.count("\n"), stripped.count("\n"))
        violations = lint(text)
        self.assertEqual(rules_of(violations), ["R1"])
        self.assertEqual(violations[0].line, 2)


class R1Test(unittest.TestCase):
    SEEDED = [
        "auto t = std::chrono::system_clock::now();",
        "auto t = std::chrono::steady_clock::now();",
        "auto t = std::chrono::high_resolution_clock::now();",
        "int x = rand();",
        "srand(42);",
        "std::random_device rd;",
        "std::mt19937 gen(1);",
        "uint64_t s = time(nullptr);",
        "uint64_t s = time(NULL);",
        "struct timeval tv; gettimeofday(&tv, nullptr);",
        "clock_gettime(CLOCK_MONOTONIC, &ts);",
    ]

    def test_every_seeded_violation_fires(self):
        for snippet in self.SEEDED:
            with self.subTest(snippet=snippet):
                self.assertEqual(rules_of(lint(snippet)), ["R1"])

    def test_deterministic_lookalikes_stay_quiet(self):
        for snippet in [
            "uint64_t retransmit_time(TcpConfig c);",  # _time( is not time(
            "double x = sim_.now();",
            "common::Rng rng(seed);",
            "int frand();",  # suffix match must not fire
            "auto d = file.mtime();",
        ]:
            with self.subTest(snippet=snippet):
                self.assertEqual(lint(snippet), [])

    def test_inline_allow_with_reason_suppresses(self):
        text = ("// simlint:allow(R1): wall-clock path, tolerance-checked\n"
                "auto t = std::chrono::steady_clock::now();\n")
        self.assertEqual(lint(text), [])

    def test_inline_allow_without_reason_is_itself_flagged(self):
        text = ("// simlint:allow(R1)\n"
                "auto t = std::chrono::steady_clock::now();\n")
        self.assertEqual(rules_of(lint(text)), ["R1"])

    def test_file_allowlist_suppresses(self):
        text = "auto t = std::chrono::steady_clock::now();\n"
        self.assertEqual(lint(text, file_allow={"R1": "wall path"}), [])


class R2Test(unittest.TestCase):
    SEEDED = """
    void EmitStats() {
      std::unordered_map<int, int> counts_;
      for (const auto& kv : counts_) {
        rt::EmitJsonMetric("bench", "count", kv.second, "n");
      }
    }
    """

    def test_unordered_iteration_into_metrics_fires(self):
        self.assertEqual(rules_of(lint(self.SEEDED)), ["R2"])

    def test_log_emission_fires(self):
        text = """
        void Dump() {
          std::unordered_set<uint64_t> seen_;
          for (uint64_t fp : seen_) { DPDPU_LOG(Info) << fp; }
        }
        """
        self.assertEqual(rules_of(lint(text)), ["R2"])

    def test_event_scheduling_fires(self):
        text = """
        void Kick() {
          std::unordered_map<int, Node> peers_;
          for (auto& kv : peers_) {
            sim_->Schedule(10, [&] { kv.second.Poll(); });
          }
        }
        """
        self.assertEqual(rules_of(lint(text)), ["R2"])

    def test_sort_before_loop_is_the_escape_hatch(self):
        text = """
        void EmitStats() {
          std::unordered_map<int, int> counts_;
          std::vector<int> keys;
          for (const auto& kv : counts_) keys.push_back(kv.first);
          std::sort(keys.begin(), keys.end());
          for (int k : keys) {
            rt::EmitJsonMetric("bench", "count", counts_.at(k), "n");
          }
        }
        """
        # The collection loop precedes the sort() but feeds no emission
        # itself... the rule keys on sort-before-THIS-loop, so the first
        # loop still fires without an annotation. Canonical style is to
        # sort first, then both loops are clean:
        text_sorted_first = """
        void EmitStats() {
          std::unordered_map<int, int> counts_;
          std::vector<int> keys = SortedKeys(counts_);
          std::sort(keys.begin(), keys.end());
          for (int k : keys) {
            rt::EmitJsonMetric("bench", "count", counts_.at(k), "n");
          }
        }
        """
        self.assertEqual(lint(text_sorted_first), [])
        self.assertEqual(rules_of(lint(text)), ["R2"])

    def test_no_emission_no_violation(self):
        text = """
        int Total() {
          std::unordered_map<int, int> counts_;
          int total = 0;
          for (const auto& kv : counts_) total += kv.second;
          return total;
        }
        """
        self.assertEqual(lint(text), [])

    def test_ordered_map_iteration_is_fine(self):
        text = """
        void EmitStats() {
          std::map<int, int> counts_;
          for (const auto& kv : counts_) {
            rt::EmitJsonMetric("bench", "count", kv.second, "n");
          }
        }
        """
        self.assertEqual(lint(text), [])


class R3Test(unittest.TestCase):
    def test_pointer_keyed_containers_fire(self):
        for snippet in [
            "std::map<Connection*, int> by_conn_;",
            "std::set<const Node*> down_;",
            "std::unordered_map<Flow*, Stats> stats_;",
            "std::hash<Peer*> hasher;",
            "std::less<Request*> cmp;",
        ]:
            with self.subTest(snippet=snippet):
                self.assertEqual(rules_of(lint(snippet)), ["R3"])

    def test_value_keys_stay_quiet(self):
        for snippet in [
            "std::map<uint32_t, std::unique_ptr<TcpConnection>> conns_;",
            "std::map<NodeId, Endpoint> endpoints_;",
            "std::unordered_map<uint64_t, uint32_t> seen_;",
        ]:
            with self.subTest(snippet=snippet):
                self.assertEqual(lint(snippet), [])


class R4Test(unittest.TestCase):
    def test_void_launder_fires(self):
        self.assertEqual(rules_of(lint("(void)journal.Append(7, span);")),
                         ["R4"])
        self.assertEqual(rules_of(lint("(void)engine->Invoke(k, text);")),
                         ["R4"])

    def test_void_of_variable_is_fine(self):
        # (void)param; silences an unused-parameter warning, not a Status.
        self.assertEqual(lint("(void)unused_arg;"), [])

    def test_handled_status_is_fine(self):
        self.assertEqual(
            lint("Status s = journal.Append(7, span);\n"
                 "if (!s.ok()) return s;"), [])

    def test_nodiscard_markers_are_enforced(self):
        found = []
        simlint.check_r4_nodiscard_markers(simlint.REPO_ROOT, found.append)
        self.assertEqual(found, [],
                         "common Status/Result/Buffer lost [[nodiscard]]")


class R5Test(unittest.TestCase):
    def test_uninitialized_trivial_fields_fire(self):
        text = """
        struct RetryConfig {
          int attempts;
          double backoff = 2.0;
        };
        """
        violations = lint(text)
        self.assertEqual(rules_of(violations), ["R5"])
        self.assertIn("attempts", violations[0].message)

    def test_pointer_field_fires(self):
        text = "struct WireSpec {\n  Simulator* sim;\n};\n"
        self.assertEqual(rules_of(lint(text)), ["R5"])

    def test_initialized_struct_is_clean(self):
        text = """
        struct TcpConfig {
          uint32_t mss = 1448;
          SimTime rto_max = 60 * kSecond;
          bool nagle = false;
          double beta{0.7};
        };
        """
        self.assertEqual(lint(text), [])

    def test_member_functions_and_class_types_are_skipped(self):
        text = """
        struct ChunkerOptions {
          std::string label;
          size_t min_size = 2048;
          double Ratio() const {
            return unique == 0 ? 1.0 : double(total) / double(unique);
          }
          static constexpr int kMax = 7;
        };
        """
        self.assertEqual(lint(text), [])

    def test_non_config_structs_are_out_of_scope(self):
        # Plain structs may be aggregate-filled at every call site; the
        # rule only patrols the Config/Options/Spec naming convention.
        self.assertEqual(lint("struct Point { int x; int y; };"), [])


class R6Test(unittest.TestCase):
    def test_zero_delay_schedule_fires(self):
        self.assertEqual(
            rules_of(lint("sim_->Schedule(0, [&] { Poll(); });")), ["R6"])
        self.assertEqual(
            rules_of(lint("sim.Schedule(0, std::move(fn));")), ["R6"])

    def test_schedule_at_now_fires(self):
        self.assertEqual(
            rules_of(lint("sim->ScheduleAt(sim->now(), std::move(fn));")),
            ["R6"])

    def test_raw_this_capture_fires(self):
        self.assertEqual(
            rules_of(lint("sim_->Schedule(10, [this] { Poll(); });")),
            ["R6"])
        # Multi-line call with the capture on the continuation line.
        text = ("fleet_->simulator()->Schedule(\n"
                "    options_.retry_timeout, [this, op, generation] {\n"
                "      Retry(op);\n"
                "    });\n")
        self.assertEqual(rules_of(lint(text)), ["R6"])

    def test_lookalikes_stay_quiet(self):
        for snippet in [
            "sim_->Schedule(10, [heart] { heart->fn(); });",  # token capture
            "sim->ScheduleAt(sim->now() + delay, std::move(fn));",  # future
            "sim_->Schedule(delay, std::move(fn));",  # no lambda at all
            "Reschedule(0, fn);",  # free function, not the simulator API
        ]:
            with self.subTest(snippet=snippet):
                self.assertEqual(lint(snippet), [])

    def test_allow_with_reason_suppresses(self):
        text = ("// simlint:allow(R6): driver outlives the drained heap\n"
                "sim_->Schedule(10, [this] { Poll(); });\n")
        self.assertEqual(lint(text), [])

    def test_zero_delay_with_this_needs_one_allow_for_both(self):
        # Both R6 patterns fire on the same line; a single reasoned allow
        # covers them (they are the same rule).
        text = ("// simlint:allow(R6): alive-token-guarded deferral\n"
                "sim_->Schedule(0, [this, alive] { Fail(); });\n")
        self.assertEqual(lint(text), [])


class R7Test(unittest.TestCase):
    def test_draw_in_ref_captured_callback_fires(self):
        text = """
        void Run() {
          Pcg32 rng(11);
          sim.ScheduleAt(at, [&rng, &done] {
            uint64_t offset = rng.NextBounded(4000) * 8192;
          });
        }
        """
        violations = lint(text)
        self.assertEqual(rules_of(violations), ["R7"])
        self.assertIn("'rng'", violations[0].message)

    def test_default_ref_capture_fires(self):
        text = """
        void Run() {
          Pcg32 rng(3);
          issue = [&] {
            if (rng.NextDouble() < 0.5) Read();
          };
        }
        """
        self.assertEqual(rules_of(lint(text)), ["R7"])

    def test_generator_passed_to_zipf_fires(self):
        text = """
        void Run() {
          Pcg32 rng(13);
          ZipfGenerator zipf(4000, 0.99);
          issue = [&] {
            uint64_t key = zipf.Next(rng);
          };
        }
        """
        self.assertEqual(rules_of(lint(text)), ["R7"])

    def test_per_request_generator_inside_lambda_is_clean(self):
        text = """
        void Run() {
          issue = [&] {
            Pcg32 rng(sim::SplitMix64(seed ^ uint64_t(next++)));
            uint64_t key = rng.NextBounded(4000);
          };
        }
        """
        self.assertEqual(lint(text), [])

    def test_draw_at_schedule_time_is_clean(self):
        text = """
        void Run() {
          Pcg32 rng(11);
          for (uint64_t i = 0; i < total; ++i) {
            uint64_t offset = rng.NextBounded(4000) * 8192;
            sim.ScheduleAt(at, [offset] { Read(offset); });
          }
        }
        """
        self.assertEqual(lint(text), [])

    def test_copy_capture_is_clean(self):
        # A copy is an independent stream per closure: deterministic.
        for capture in ["rng", "&, rng", "rng = rng"]:
            text = f"""
            void Run() {{
              Pcg32 rng(5);
              cb = [{capture}]() mutable {{ rng.NextDouble(); }};
            }}
            """
            with self.subTest(capture=capture):
                self.assertEqual(lint(text), [])

    def test_subscript_is_not_a_lambda(self):
        text = """
        void Run() {
          Pcg32 rng(5);
          uint64_t x = table[idx] + rng.NextBounded(7);
        }
        """
        self.assertEqual(lint(text), [])

    def test_allow_with_reason_suppresses(self):
        text = """
        void Run() {
          Pcg32 rng(7);
          helper = [&](int n) {
            // simlint:allow(R7): synchronous helper, draws not scheduled
            uint64_t k = rng.NextBounded(100);
          };
        }
        """
        self.assertEqual(lint(text), [])


class R8Test(unittest.TestCase):
    def lint_src(self, text):
        return simlint.lint_text("src/core/fixture.h", text)

    def test_std_function_in_src_fires(self):
        for snippet in [
            "using ReplyFn = std::function<void(Result<Buffer>)>;",
            "void Listen(uint16_t port, std::function<void(int)> cb);",
            "std::vector<std::function<void()>> continuations_;",
        ]:
            with self.subTest(snippet=snippet):
                self.assertEqual(rules_of(self.lint_src(snippet)), ["R8"])

    def test_unique_function_and_prose_stay_quiet(self):
        for snippet in [
            "using ReplyFn = UniqueFunction<void(Result<Buffer>)>;",
            "// unlike std::function, a UniqueFunction is move-only",
            "std::move_only_function<void()> f;",
        ]:
            with self.subTest(snippet=snippet):
                self.assertEqual(self.lint_src(snippet), [])

    def test_outside_src_is_out_of_scope(self):
        text = "std::function<void(uint64_t)> arrive = [&](uint64_t i) {};"
        self.assertEqual(simlint.lint_text("bench/fixture.cc", text), [])
        self.assertEqual(lint(text), [])

    def test_allow_with_reason_suppresses(self):
        text = ("using KernelFn = std::function<  "
                "// simlint:allow(R8): copied with DpKernel\n"
                "    Result<Buffer>(ByteSpan input)>;\n")
        self.assertEqual(self.lint_src(text), [])


class StaleSuppressionTest(unittest.TestCase):
    def test_unused_inline_allow_is_flagged(self):
        text = ("// simlint:allow(R1): left behind after a refactor\n"
                "double x = sim_.now();\n")
        violations = lint(text)
        self.assertEqual(rules_of(violations), ["R1"])
        self.assertIn("stale inline", violations[0].message)

    def test_used_inline_allow_is_not_flagged(self):
        text = ("// simlint:allow(R1): wall path\n"
                "auto t = std::chrono::steady_clock::now();\n")
        self.assertEqual(lint(text), [])

    def test_used_file_rules_are_reported_to_caller(self):
        used = set()
        simlint.lint_text(
            "fixture.cc", "auto t = std::chrono::steady_clock::now();\n",
            file_allow={"R1": "wall path", "R3": "unrelated"},
            used_file_rules=used)
        self.assertEqual(used, {"R1"})

    def _run_main_with_allowlist(self, entry, roots):
        import tempfile
        with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                         delete=False) as f:
            f.write(entry + "\n")
            path = f.name
        try:
            return simlint.main(["--allowlist", path] + roots)
        finally:
            os.unlink(path)

    def test_entry_for_missing_file_fails_even_in_subtree_runs(self):
        rc = self._run_main_with_allowlist(
            "src/no/such/file.cc R1 the file is long gone", ["src/sim"])
        self.assertEqual(rc, 1)

    def test_entry_for_scanned_file_without_the_violation_fails(self):
        rc = self._run_main_with_allowlist(
            "src/sim/simulator.h R3 never actually fired here", ["src/sim"])
        self.assertEqual(rc, 1)

    def test_entry_outside_scanned_roots_is_not_judged(self):
        # metrics.h R1 is the live repo waiver; a subtree run that never
        # scans it cannot tell whether it is stale and must not fail.
        rc = self._run_main_with_allowlist(
            "src/core/runtime/metrics.h R1 wall-clock measurement path",
            ["src/sim"])
        self.assertEqual(rc, 0)


class DriverTest(unittest.TestCase):
    def test_repo_tree_is_clean(self):
        # The whole point of the exercise: the shipped tree has zero
        # violations, so any new one is a regression introduced by a PR.
        rc = simlint.main([])
        self.assertEqual(rc, 0)

    def test_list_rules(self):
        self.assertEqual(simlint.main(["--list-rules"]), 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
