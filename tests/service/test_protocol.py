"""The serve daemon's wire vocabulary: payload parsing and validation."""

import pytest

from repro.harness.runner import CellSpec, PolicySpec, ladder_specs
from repro.service import (
    ProtocolError,
    cell_label,
    parse_cell,
    parse_job_payload,
    parse_policy,
    spec_to_payload,
)


class TestParsePolicy:
    def test_bare_string(self):
        assert parse_policy("afraid") == PolicySpec("afraid")
        assert parse_policy("raid5") == PolicySpec("raid5")

    def test_mapping_with_target(self):
        spec = parse_policy({"kind": "mttdl", "mttdl_target": 1e7})
        assert spec == PolicySpec("mttdl", mttdl_target=1e7)

    def test_target_coerced_from_string(self):
        assert parse_policy({"kind": "mttdl", "mttdl_target": "1e6"}).mttdl_target == 1e6

    def test_unknown_keys_rejected(self):
        with pytest.raises(ProtocolError, match="unknown policy keys"):
            parse_policy({"kind": "afraid", "bogus": 1})

    def test_kind_required(self):
        with pytest.raises(ProtocolError, match='"kind"'):
            parse_policy({"mttdl_target": 1e7})

    def test_invalid_kind_surfaces_as_protocol_error(self):
        with pytest.raises(ProtocolError):
            parse_policy("raid99")

    def test_mttdl_without_target_surfaces_as_protocol_error(self):
        with pytest.raises(ProtocolError):
            parse_policy("mttdl")

    def test_non_mapping_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_policy(["afraid"])


class TestParseCell:
    def test_minimal(self):
        spec = parse_cell({"workload": "hplajw", "policy": "afraid"})
        assert spec.workload == "hplajw"
        assert spec.policy == PolicySpec("afraid")

    def test_defaults_merge_and_cell_overrides_win(self):
        defaults = {"duration_s": 30.0, "seed": 7, "policy": "afraid"}
        spec = parse_cell({"workload": "ATT", "seed": 9}, defaults)
        assert (spec.duration_s, spec.seed) == (30.0, 9)

    def test_field_coercion(self):
        spec = parse_cell(
            {"workload": "hplajw", "policy": "afraid", "duration_s": "5", "ndisks": 7.0}
        )
        assert spec.duration_s == 5.0
        assert spec.ndisks == 7

    def test_unknown_keys_rejected(self):
        with pytest.raises(ProtocolError, match="unknown cell keys"):
            parse_cell({"workload": "hplajw", "policy": "afraid", "colour": "red"})

    def test_unknown_workload_rejected(self):
        with pytest.raises(ProtocolError, match="unknown workload"):
            parse_cell({"workload": "nosuch", "policy": "afraid"})

    def test_workload_and_policy_required(self):
        with pytest.raises(ProtocolError, match='"workload"'):
            parse_cell({"policy": "afraid"})
        with pytest.raises(ProtocolError, match='"policy"'):
            parse_cell({"workload": "hplajw"})

    def test_uncoercible_field_rejected(self):
        with pytest.raises(ProtocolError, match="duration_s"):
            parse_cell({"workload": "hplajw", "policy": "afraid", "duration_s": "soon"})

    def test_round_trips_through_spec_to_payload(self):
        for spec in (
            CellSpec(workload="hplajw", policy=PolicySpec("afraid"), seed=9),
            CellSpec(workload="ATT", policy=PolicySpec("mttdl", mttdl_target=1e6)),
        ):
            assert parse_cell(spec_to_payload(spec)) == spec


class TestParseJobPayload:
    def test_explicit_cells_with_defaults(self):
        specs = parse_job_payload(
            {
                "cells": [
                    {"workload": "hplajw", "policy": "afraid"},
                    {"workload": "ATT", "policy": {"kind": "mttdl", "mttdl_target": 1e7}},
                ],
                "duration_s": 12.0,
                "seed": 5,
            }
        )
        assert [spec.workload for spec in specs] == ["hplajw", "ATT"]
        assert all(spec.duration_s == 12.0 and spec.seed == 5 for spec in specs)

    def test_ladder_shape_matches_ladder_specs(self):
        payload = {"workloads": ["hplajw", "ATT"], "targets": [1e7],
                   "duration_s": 8.0, "seed": 3}
        assert parse_job_payload(payload) == ladder_specs(
            ["hplajw", "ATT"], [1e7], duration_s=8.0, seed=3
        )

    def test_ladder_can_drop_baselines(self):
        specs = parse_job_payload(
            {"workloads": ["hplajw"], "include_raid5": False, "include_raid0": False}
        )
        assert [spec.policy.kind for spec in specs] == ["afraid"]

    def test_exactly_one_shape_required(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            parse_job_payload({"duration_s": 5.0})
        with pytest.raises(ProtocolError, match="exactly one"):
            parse_job_payload({"cells": [], "workloads": ["hplajw"]})

    def test_empty_cells_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            parse_job_payload({"cells": []})

    def test_empty_workloads_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            parse_job_payload({"workloads": []})

    def test_unknown_job_keys_rejected(self):
        with pytest.raises(ProtocolError, match="unknown job keys"):
            parse_job_payload({"workloads": ["hplajw"], "priority": "high"})

    def test_unknown_workload_in_ladder_rejected(self):
        with pytest.raises(ProtocolError, match="unknown workload"):
            parse_job_payload({"workloads": ["nosuch"]})

    def test_bad_targets_rejected(self):
        with pytest.raises(ProtocolError, match="targets"):
            parse_job_payload({"workloads": ["hplajw"], "targets": "1e7"})
        with pytest.raises(ProtocolError, match="targets"):
            parse_job_payload({"workloads": ["hplajw"], "targets": ["soon"]})

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_job_payload([{"workload": "hplajw"}])

    @pytest.mark.parametrize("duration", [0, -3, float("nan"), "NaN", "inf"])
    def test_unrunnable_duration_rejected(self, duration):
        cells = [{"workload": "hplajw", "policy": "afraid"}]
        for payload in (
            {"cells": cells, "duration_s": duration},
            {"cells": [{**cells[0], "duration_s": duration}]},
            {"workloads": ["hplajw"], "duration_s": duration},
        ):
            with pytest.raises(ProtocolError, match="duration_s"):
                parse_job_payload(payload)

    @pytest.mark.parametrize("ndisks", [1, 2])
    def test_disk_count_the_organization_refuses_rejected(self, ndisks):
        for payload in (
            {"cells": [{"workload": "hplajw", "policy": "afraid", "ndisks": ndisks}]},
            {"workloads": ["hplajw"], "ndisks": ndisks},
        ):
            with pytest.raises(ProtocolError, match="disks for RAID 5"):
                parse_job_payload(payload)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("stripe_unit_sectors", 0, "stripe unit must be >= 1 sector"),
            ("stripe_unit_sectors", -8, "stripe unit must be >= 1 sector"),
            ("stripe_unit_sectors", 10**9, "smaller than one stripe unit"),
            ("idle_threshold_s", -1, "idle_threshold_s"),
            ("idle_threshold_s", "NaN", "idle_threshold_s"),
            ("extra_settle_s", -5, "extra_settle_s"),
        ],
    )
    def test_cell_no_worker_can_run_rejected(self, field, value, message):
        cell = {"workload": "hplajw", "policy": "afraid"}
        for payload in (
            {"cells": [cell], field: value, "duration_s": 2},
            {"cells": [{**cell, field: value}], "duration_s": 2},
            {"workloads": ["hplajw"], field: value, "duration_s": 2},
        ):
            with pytest.raises(ProtocolError, match=message):
                parse_job_payload(payload)


class TestCellLabel:
    def test_matches_sweep_grid_key(self):
        spec = CellSpec(workload="hplajw", policy=PolicySpec("afraid"))
        assert cell_label(spec) == f"{spec.key[0]}/{spec.key[1]}"

    def test_mttdl_label_carries_target(self):
        spec = CellSpec(workload="ATT", policy=PolicySpec("mttdl", mttdl_target=1e7))
        assert cell_label(spec) == "ATT/MTTDL_1e+07"
