"""Tests for the repro.obs core: counters, timers and profiles."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.exceptions import ProfileError


class TestProfiler:
    def test_counters_accumulate(self):
        prof = obs.Profiler()
        prof.count("x")
        prof.count("x", 4)
        prof.count("y", 2.5)
        assert prof.counters == {"x": 5, "y": 2.5}

    def test_count_max_keeps_high_water_mark(self):
        prof = obs.Profiler()
        prof.count_max("depth", 3)
        prof.count_max("depth", 7)
        prof.count_max("depth", 5)
        assert prof.counters["depth"] == 7

    def test_timer_accumulates_total_and_count(self):
        prof = obs.Profiler()
        with prof.timer("phase"):
            pass
        with prof.timer("phase"):
            pass
        total, count = prof.timers["phase"]
        assert count == 2
        assert total >= 0.0

    def test_snapshot_is_json_able(self):
        prof = obs.Profiler()
        prof.count("c", 2)
        with prof.timer("t"):
            pass
        snap = json.loads(json.dumps(prof.snapshot()))
        assert snap["counters"] == {"c": 2}
        assert snap["timers"]["t"]["count"] == 1
        assert set(snap) == {"counters", "timers"}

    def test_reset_clears_everything(self):
        prof = obs.Profiler()
        prof.count("c")
        with prof.timer("t"):
            pass
        prof.reset()
        assert prof.snapshot() == {"counters": {}, "timers": {}}


class TestActivation:
    def test_disabled_by_default(self):
        assert obs.active() is None

    def test_module_helpers_are_noops_while_disabled(self):
        obs.count("nope", 5)
        with obs.timer("nope"):
            pass
        assert obs.active() is None

    def test_enable_disable_roundtrip(self):
        prof = obs.enable()
        try:
            assert obs.active() is prof
            obs.count("c")
            assert prof.counters["c"] == 1
        finally:
            returned = obs.disable()
        assert returned is prof
        assert obs.active() is None

    def test_profiled_restores_previous_state(self):
        outer = obs.enable()
        try:
            with obs.profiled() as inner:
                assert obs.active() is inner
                assert inner is not outer
            assert obs.active() is outer
        finally:
            obs.disable()

    def test_profiled_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.profiled():
                raise RuntimeError("boom")
        assert obs.active() is None


class TestProfileArtifact:
    def _profile(self):
        prof = obs.Profiler()
        prof.count("topolb.cycles", 16)
        with prof.timer("topolb.map"):
            pass
        prof.count("netsim.saturation_events")
        return obs.build_profile(
            prof,
            command="unit-test",
            context={"seed": 0},
            netsim={
                "links_used": 1,
                "total_bytes": 100.0,
                "max_link_bytes": 100.0,
                "mean_utilization": 0.5,
                "max_utilization": 0.5,
                "max_queue_depth": 8,
                "sim_time_us": 2.0,
                "top_links": [
                    {"link": "0->1", "bytes": 100.0, "busy_us": 1.0,
                     "max_queue_depth": 8},
                ],
            },
        )

    def test_round_trip_through_disk(self, tmp_path):
        profile = self._profile()
        path = tmp_path / "profile.json"
        obs.save_profile(profile, path)
        loaded = obs.load_profile(path)
        assert loaded == json.loads(json.dumps(profile))

    def test_schema_agrees_with_jsonschema_package(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(self._profile(), obs.PROFILE_SCHEMA)

    def test_validation_rejects_missing_format(self):
        bad = self._profile()
        del bad["format"]
        with pytest.raises(ProfileError):
            obs.validate_profile(bad)

    def test_validation_rejects_wrong_counter_type(self):
        bad = self._profile()
        bad["counters"]["topolb.cycles"] = "sixteen"
        with pytest.raises(ProfileError):
            obs.validate_profile(bad)

    def test_validation_rejects_unknown_top_level_key(self):
        bad = self._profile()
        bad["bogus"] = 1
        with pytest.raises(ProfileError):
            obs.validate_profile(bad)

    def test_flow_summary_shape_accepted(self):
        # Older profiles may carry a flow-estimator netsim block: "mode",
        # a makespan lower bound, and per-link message counts in place of
        # measured busy times. They must still validate and render.
        prof = obs.Profiler()
        doc = obs.build_profile(
            prof,
            command="unit-test",
            netsim={
                "mode": "flow",
                "links_used": 1,
                "total_bytes": 100.0,
                "max_link_bytes": 100.0,
                "mean_utilization": 0.5,
                "max_utilization": 1.0,
                "makespan_lower_bound_us": 2.0,
                "top_links": [{"link": "0->1", "bytes": 100.0, "messages": 4}],
            },
        )
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(doc, obs.PROFILE_SCHEMA)
        report = obs.summarize_profile(doc)
        assert "makespan >= 2 us" in report
        assert "bytes / messages" in report

    @pytest.mark.parametrize("key, value", [
        ("events", [{"name": "netsim.run_complete"}]),
        ("series", {"link_bytes:0->1": {"stride": 1, "samples": []}}),
    ], ids=["events", "series"])
    def test_validation_rejects_events_and_series(self, key, value):
        """Profiles hold counters and timers only; a document recorded
        with the old event log or per-link series no longer loads."""
        bad = self._profile()
        bad[key] = value
        with pytest.raises(ProfileError, match=f"unexpected key '{key}'"):
            obs.validate_profile(bad)

    def test_validation_rejects_malformed_netsim(self):
        bad = self._profile()
        del bad["netsim"]["top_links"]
        with pytest.raises(ProfileError):
            obs.validate_profile(bad)

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ProfileError):
            obs.load_profile(path)

    def test_summarize_mentions_all_sections(self):
        text = obs.summarize_profile(self._profile())
        assert "unit-test" in text
        assert "topolb.cycles" in text
        assert "topolb.map" in text
        assert "0->1" in text
        assert "netsim.saturation_events" in text

    def test_summarize_minimal_profile(self):
        minimal = {
            "format": obs.PROFILE_FORMAT,
            "command": "bare",
            "counters": {},
            "timers": {},
        }
        text = obs.summarize_profile(minimal)
        assert "bare" in text
