"""Datasets, checksums, workspace lifecycle, data-loss handling,
execution-model negotiation, and kernel running."""

import hashlib
import json
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pubflow import (
    DatasetRecord,
    DatasetStage,
    EMConfig,
    InvalidStage,
    KernelSpec,
    MissingInput,
    SchedulingPolicy,
    SchemaError,
    Workspace,
    checksum_hex,
    decode_dataset,
    dlc_apply,
    em_negotiate,
    encode_dataset,
    execute_kernel,
    register_acquirer,
    register_kernel,
)
from pubflow.execution import KERNELS


# ------------------------------------------------------------- checksums

def blake2b_64(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


class TestChecksumHex:
    @given(st.binary(max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_matches_hashlib_blake2b_64(self, data):
        assert checksum_hex(b"") == "e4a6a0577479b2b4"
        assert checksum_hex(b"abc") == "d8bb14d833d59559"
        assert checksum_hex(data) == blake2b_64(data)

    def test_hex_form_is_16_lowercase_chars(self):
        text = checksum_hex(b"hello world")
        assert len(text) == 16
        assert text == text.lower()
        assert text == blake2b_64(b"hello world")

    def test_hex_keeps_leading_zeros(self):
        # find some payload whose hash has a high nibble of zero
        for i in range(4096):
            data = i.to_bytes(2, "little")
            if int(blake2b_64(data), 16) >> 60 == 0:
                assert checksum_hex(data).startswith("0")
                assert len(checksum_hex(data)) == 16
                return
        pytest.skip("no zero-leading hash in probe range")


class TestDatasetCodec:
    def test_header_layout(self):
        data = encode_dataset([1.0, 2.0, 3.0])
        assert data[:4] == b"PFLW"
        count = struct.unpack("<4s4xQ", data[:16])[1]
        assert count == 3
        assert len(data) == 16 + 3 * 8

    def test_little_endian_float64_payload(self):
        data = encode_dataset([1.5])
        assert data[16:] == struct.pack("<d", 1.5)

    def test_round_trip(self):
        values = [0.0, -1.25, 3.5e300, 1e-300]
        out = decode_dataset(encode_dataset(values))
        assert out.dtype == np.float64
        assert list(out) == values

    def test_empty_array(self):
        assert list(decode_dataset(encode_dataset([]))) == []

    def test_bad_magic_rejected(self):
        data = b"XXXX" + encode_dataset([1.0])[4:]
        with pytest.raises(SchemaError):
            decode_dataset(data)

    def test_truncated_rejected(self):
        data = encode_dataset([1.0, 2.0])[:-4]
        with pytest.raises(SchemaError):
            decode_dataset(data)

    @given(st.lists(st.floats(allow_nan=False), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, values):
        assert list(decode_dataset(encode_dataset(values))) == values


def numpy_encode(values) -> bytes:
    """The container bytes as numpy made them, the reference for
    encode_dataset, which needs numpy only for an array."""
    arr = np.asarray(values, dtype="<f8")
    if arr.ndim != 1:
        raise SchemaError("datasets are one-dimensional arrays")
    return struct.pack("<4s4xQ", b"PFLW", arr.size) + arr.tobytes()


NUMBERS = st.one_of(
    st.floats(),  # NaN and +-inf included
    st.integers(min_value=-2**80, max_value=2**80),
    st.booleans(),
    st.floats().map(repr),  # numeric strings: "1.5", "nan", "-inf", ...
    st.integers(min_value=-2**70, max_value=2**70).map(str),
)
ARRAYS = hnp.arrays(
    st.sampled_from(["<f8", ">f8", "<f4", "<i8", "<i4", "|u1"]),
    st.integers(min_value=0, max_value=40))


class TestEncodeMatchesNumpy:
    @given(st.lists(NUMBERS, max_size=40) | st.tuples(NUMBERS, NUMBERS))
    @settings(max_examples=200, deadline=None)
    def test_sequences(self, values):
        assert encode_dataset(values) == numpy_encode(values)

    @given(ARRAYS, st.integers(min_value=1, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_arrays_and_strided_slices(self, arr, step):
        view = arr[::step]  # a step over 1 is not contiguous
        assert encode_dataset(view) == numpy_encode(view)

    def test_numbers_through_float(self):
        assert encode_dataset(["1.5", True, 2, " 3e2\n"]) == \
            numpy_encode([1.5, 1.0, 2.0, 300.0])

    @pytest.mark.parametrize("values", [
        [[1.0, 2.0]], [[1.0], [2.0]], ([1.0],), [1.0, None],
        np.zeros((2, 2)), np.zeros((1, 3))[:, ::2],
        5.0, 2, np.float64(5.0), np.array(5.0), "1.5", b"1.5", {1.0: 2.0}],
        ids=repr)
    def test_refuses_what_is_not_one_dimensional(self, values):
        with pytest.raises(SchemaError):
            encode_dataset(values)

    @pytest.mark.parametrize("values", ["ab", ["ab"], ["1.5", "x"]])
    def test_non_numeric_string_is_a_value_error(self, values):
        with pytest.raises(ValueError):
            encode_dataset(values)
        with pytest.raises(ValueError):
            numpy_encode(values)


# ------------------------------------------------------------- workspace

class TestWorkspace:
    def test_put_then_get(self, tmp_path):
        ws = Workspace(tmp_path)
        record = ws.put("d1", b"abc")
        assert record.stage is DatasetStage.READY
        assert record.checksum == checksum_hex(b"abc")
        assert ws.get("d1") == b"abc"
        assert ws.sizes() == {"d1": 3}
        assert ws.has_ready("d1")

    def test_get_missing_raises(self, tmp_path):
        ws = Workspace(tmp_path)
        with pytest.raises(MissingInput):
            ws.get("ghost")

    def test_sizes_lists_everything(self, tmp_path):
        ws = Workspace(tmp_path)
        ws.put("a", b"xx")
        ws.put("b", b"yyy")
        assert ws.sizes() == {"a": 2, "b": 3}

    def test_damaged_payload_is_refused_naming_the_dataset(self, tmp_path):
        ws = Workspace(tmp_path)
        ws.put("d", b"abc")
        ws.put("e", b"xyz")
        pack = tmp_path / "workspace.dat"
        pack.write_bytes(b"abX" + pack.read_bytes()[3:])
        assert ws.get("d") == b"abc"  # put by this Workspace, in memory
        reopened = Workspace(tmp_path)
        assert reopened.has_ready("d")
        with pytest.raises(SchemaError, match="dataset 'd' does not match"):
            reopened.get("d")
        assert reopened.get("e") == b"xyz"

    def test_short_pack_is_refused_naming_the_manifest_line(self, tmp_path):
        ws = Workspace(tmp_path)
        ws.put("d", b"abc")
        ws.put("e", b"xyz")
        pack = tmp_path / "workspace.dat"
        pack.write_bytes(pack.read_bytes()[:5])
        with pytest.raises(SchemaError, match=r"workspace.jsonl: line 3: "
                           r"extent \[3, 3\] lies past the end of "
                           r"workspace.dat \(5 bytes\)"):
            Workspace(tmp_path)
        pack.unlink()
        with pytest.raises(SchemaError, match="line 2: extent"):
            Workspace(tmp_path)

    def test_slash_in_dataset_id_is_safe(self, tmp_path):
        ws = Workspace(tmp_path)
        ws.put("dir/like/id", b"data")
        assert ws.get("dir/like/id") == b"data"
        # everything stays flat inside the root
        assert all(p.parent == ws.root for p in ws.root.iterdir())

    def test_metadata_survives_reopen(self, tmp_path):
        Workspace(tmp_path).put("d", b"abc", {"acquirer": "x", "n": 1})
        record = Workspace(tmp_path).record("d")
        assert record.acquisition_params == {"acquirer": "x", "n": 1}
        assert record.checksum == checksum_hex(b"abc")

    def test_get_serves_payloads_from_memory(self, tmp_path):
        payload = b"abc"
        ws = Workspace(tmp_path)
        ws.put("d", payload)
        assert ws.get("d") is payload
        reopened = Workspace(tmp_path)
        first = reopened.get("d")  # the one read of the pack
        assert first == payload
        assert reopened.get("d") is first

    def test_manifest_is_a_header_and_one_line_per_change(self, tmp_path):
        register_acquirer("const-xyz")(lambda: b"xyz")
        ws = Workspace(tmp_path)
        ws.put("d", b"xyz", {"acquirer": "const-xyz"})
        dlc_apply(ws, "d")
        lines = (tmp_path / "workspace.jsonl").read_text("utf-8") \
            .splitlines()
        assert json.loads(lines[0]) == {"format": 3, "hash": "blake2b-64"}
        docs = [json.loads(line) for line in lines[1:]]
        assert [doc["stage"] for doc in docs] == \
            ["ready", "dropped", "acquiring", "ready"]
        # the dropped payload stays in the pack as dead space
        assert [doc.get("at") for doc in docs] == [[0, 3], None, None, [3, 3]]
        assert (tmp_path / "workspace.dat").read_bytes() == b"xyzxyz"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["workspace.dat", "workspace.jsonl"]

    def test_puts_and_a_drop_write_pinned_bytes_that_read_back(self,
                                                               tmp_path):
        """The manifest and pack bytes of a fixed run of puts (empty, 256
        KiB, a non-ASCII id) and a drop keep the digests of the format-3
        writer; a reopened Workspace reads back every payload."""
        ws = Workspace(tmp_path)
        payloads = {f"d{i:02d}": encode_dataset([i * 0.5] * (i * 37))
                    for i in range(40)}
        payloads["empty"] = b""
        payloads["big"] = bytes(range(256)) * 1024
        payloads["é/slash"] = b"\x00\xff" * 9
        for i, (dataset_id, data) in enumerate(payloads.items()):
            ws.put(dataset_id, data, {"acquirer": "pin", "i": i})
        ws.drop("d07")
        payloads["d07"] = b"again"
        ws.put("d07", payloads["d07"])

        def digest(name):
            return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

        assert digest("workspace.jsonl") == \
            "d78e9edb95514dc08fa7f0462530228ac4460184c7f47065b6e2adf8aa8bae80"
        assert digest("workspace.dat") == \
            "370f22ea222698741e61352b9e228ef5fc6c170b9b9c19642289d284c8f4ca41"
        reopened = Workspace(tmp_path)
        assert reopened.sizes() == {k: len(v) for k, v in payloads.items()}
        for dataset_id, data in payloads.items():
            assert reopened.get(dataset_id) == data
            assert reopened.checksum(dataset_id) == checksum_hex(data)

    def test_reopen_folds_drop_remove_metadata_reacquire(self, tmp_path):
        """Each step runs on a Workspace freshly opened on the directory,
        so each sees only what the manifest folds to."""
        register_acquirer("const-xyz")(lambda: b"xyz")
        params = {"acquirer": "const-xyz"}
        before = Workspace(tmp_path).put("d", b"xyz", params).checksum
        Workspace(tmp_path).drop("d")
        dropped = Workspace(tmp_path)
        assert dropped.record("d").stage is DatasetStage.DROPPED
        assert dropped.checksum("d") == before
        assert not dropped.has_ready("d")
        dropped.remove_metadata("d")
        acquiring = Workspace(tmp_path).record("d")
        assert acquiring.stage is DatasetStage.ACQUIRING
        assert acquiring.checksum is None
        assert acquiring.acquisition_params == params
        Workspace(tmp_path).reacquire("d")
        ready = Workspace(tmp_path)
        assert ready.record("d") == DatasetRecord(
            "d", params, before, DatasetStage.READY)
        assert ready.get("d") == b"xyz"

    @pytest.mark.parametrize("tail, where", [
        ('{"dataset_id": "e", "acqui\n', "line 3: not JSON"),
        ('{"dataset_id": "e", "acquisition_params": {}, "checksum": null, '
         '"stage": "ready"}', "line 3: truncated"),
        ('{"dataset_id": "e", "acquisition_params": {}, "checksum": 7, '
         '"stage": "ready"}\n', "line 3: checksum must be a string"),
        ('{"dataset_id": "e", "acquisition_params": {}, "checksum": null, '
         '"stage": "lost"}\n', "line 3: stage must be one of"),
        ('{"dataset_id": "e", "acquisition_params": {}, "checksum": null}\n',
         "line 3: missing key 'stage'"),
        ('\n', "line 3: not JSON"),
        ('{"dataset_id": "e", "acquisition_params": {}, "checksum": null, '
         '"stage": "ready"}\n', "line 3: missing key 'at'"),
        ('{"dataset_id": "e", "acquisition_params": {}, "checksum": null, '
         '"stage": "ready", "at": [0, -1]}\n', "line 3: at must be"),
        ('{"dataset_id": "e", "acquisition_params": {}, "checksum": null, '
         '"stage": "ready", "at": [0]}\n', "line 3: at must be"),
        ('{"dataset_id": "d", "acquisition_params": {}, "checksum": null, '
         '"stage": "dropped", "at": [0, 3]}\n',
         "line 3: a dropped record has no extent"),
        ('{"dataset_id": "e", "acquisition_params": {}, "checksum": null, '
         '"stage": "ready", "at": [1, 3]}\n', r"line 3: extent \[1, 3\]"),
    ])
    def test_bad_manifest_line_is_refused_naming_it(self, tmp_path, tail,
                                                      where):
        Workspace(tmp_path).put("d", b"abc")
        with open(tmp_path / "workspace.jsonl", "a", encoding="utf-8") as f:
            f.write(tail)
        with pytest.raises(SchemaError,
                           match=f"workspace.jsonl: {where}"):
            Workspace(tmp_path)

    @pytest.mark.parametrize("header, where", [
        ('{"format": 2, "hash": "fnv1a-64"}\n', "line 1: header must be"),
        ('{"format": 1, "hash": "blake2b-64"}\n', "line 1: header must be"),
        ('{"format": 2, "hash": "blake2b-64"}\n', "line 1: header must be"),
        ('{"format": 3, "hash": "fnv1a-64"}\n', "line 1: header must be"),
        ("", "no header line"),
    ])
    def test_manifest_of_another_format_is_refused(self, tmp_path, header,
                                                   where):
        (tmp_path / "workspace.jsonl").write_text(header, "utf-8")
        with pytest.raises(SchemaError,
                           match=f"workspace.jsonl: {where}"):
            Workspace(tmp_path)

    def test_format_1_sidecars_are_refused(self, tmp_path):
        (tmp_path / "d.dat").write_bytes(b"abc")
        (tmp_path / "d.meta.json").write_text(json.dumps({
            "dataset_id": "d", "acquisition_params": {},
            "checksum": "0" * 16, "stage": "ready"}), "utf-8")
        with pytest.raises(SchemaError, match="d.meta.json"):
            Workspace(tmp_path)
        assert not (tmp_path / "workspace.jsonl").exists()

    def test_stage_machine_happy_path(self, tmp_path):
        register_acquirer("const-xyz")(lambda: b"xyz")
        ws = Workspace(tmp_path)
        ws.put("d", b"xyz", {"acquirer": "const-xyz"})
        assert ws.drop("d").stage is DatasetStage.DROPPED
        assert not ws.has_ready("d")
        record = ws.remove_metadata("d")
        assert record.stage is DatasetStage.ACQUIRING
        assert record.checksum is None
        assert record.acquisition_params == {"acquirer": "const-xyz"}
        record = ws.reacquire("d")
        assert record.stage is DatasetStage.READY
        assert ws.get("d") == b"xyz"

    def test_drop_requires_ready(self, tmp_path):
        ws = Workspace(tmp_path)
        ws.put("d", b"x", {"acquirer": "none"})
        ws.drop("d")
        with pytest.raises(InvalidStage):
            ws.drop("d")

    def test_remove_metadata_requires_dropped(self, tmp_path):
        ws = Workspace(tmp_path)
        ws.put("d", b"x")
        with pytest.raises(InvalidStage):
            ws.remove_metadata("d")

    def test_reacquire_requires_acquiring(self, tmp_path):
        ws = Workspace(tmp_path)
        ws.put("d", b"x")
        with pytest.raises(InvalidStage):
            ws.reacquire("d")

    def test_reacquire_unknown_acquirer(self, tmp_path):
        ws = Workspace(tmp_path)
        ws.put("d", b"x", {"acquirer": "no-such-acquirer"})
        ws.drop("d")
        ws.remove_metadata("d")
        with pytest.raises(SchemaError):
            ws.reacquire("d")


class TestDlcApply:
    def test_exact_action_sequence(self, tmp_path):
        register_acquirer("const-abc")(lambda: b"abc")
        ws = Workspace(tmp_path)
        ws.put("d", b"abc", {"acquirer": "const-abc"})
        before = ws.checksum("d")
        actions = dlc_apply(ws, "d", "transmission_failure")
        assert actions == [("drop", "d"), ("remove_metadata", "d"),
                           ("reacquire", "d")]
        assert ws.has_ready("d")
        assert ws.checksum("d") == before

    def test_round_trip_on_the_on_disk_state(self, tmp_path):
        """Put, apply the policy and read back through three Workspaces
        opened on one directory, so every step goes through the files."""
        register_acquirer("const-abc")(lambda: b"abc")
        before = Workspace(tmp_path).put(
            "d", b"abc", {"acquirer": "const-abc"}).checksum
        dlc_apply(Workspace(tmp_path), "d", "transmission_failure")
        reopened = Workspace(tmp_path)
        record = reopened.record("d")
        assert record.stage is DatasetStage.READY
        assert record.checksum == before
        assert reopened.get("d") == b"abc"

    def test_acquirer_receives_params(self, tmp_path):
        @register_acquirer("ramp")
        def _ramp(n):
            return bytes(range(n))
        ws = Workspace(tmp_path)
        ws.put("d", bytes(range(5)), {"acquirer": "ramp", "n": 5})
        dlc_apply(ws, "d", "transmission_failure")
        assert ws.get("d") == bytes(range(5))

    def test_unknown_event_rejected(self, tmp_path):
        ws = Workspace(tmp_path)
        ws.put("d", b"x", {"acquirer": "whatever"})
        with pytest.raises(SchemaError):
            dlc_apply(ws, "d", "meteor_strike")

    def test_needs_ready_dataset(self, tmp_path):
        ws = Workspace(tmp_path)
        with pytest.raises(InvalidStage):
            dlc_apply(ws, "ghost", "transmission_failure")


# -------------------------------------------------------- execution model

class TestEmNegotiate:
    @pytest.mark.parametrize("logical,physical,perf,want_logical,want_policy", [
        (4, 2, False, 2, SchedulingPolicy.IN_MEMORY),
        (2, 4, False, 2, SchedulingPolicy.IN_MEMORY),
        (4, 2, True, 2, SchedulingPolicy.DATA_AWARE),
        (2, 4, True, 2, SchedulingPolicy.DATA_AWARE),
        (0, 0, False, 0, SchedulingPolicy.IN_MEMORY),
    ])
    def test_clamp_and_policy(self, logical, physical, perf,
                              want_logical, want_policy):
        got = em_negotiate(EMConfig(
            logical_gpus=logical, physical_gpus=physical,
            performance_model_available=perf))
        assert got.logical_gpus == want_logical
        assert got.physical_gpus == physical
        assert got.scheduling_policy is want_policy

    @given(st.integers(0, 16), st.integers(0, 16), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, logical, physical, perf):
        probe = EMConfig(logical_gpus=logical, physical_gpus=physical,
                         performance_model_available=perf)
        once = em_negotiate(probe)
        assert em_negotiate(once) == once

    def test_payload_keys(self):
        payload = em_negotiate(EMConfig(2, 2, performance_model_available=True)
                               ).to_payload()
        assert payload == {
            "logical_gpus": 2,
            "physical_gpus": 2,
            "scheduling_policy": "data_aware",
            "performance_model_available": True,
        }


# ------------------------------------------------------------ kernel runs

class TestExecuteKernel:
    def test_noop_produces_declared_outputs(self, tmp_path):
        ws = Workspace(tmp_path)
        spec = KernelSpec(name="noop",
                          params={"values": {"d": [1.0, 2.0]}},
                          outputs=("d",), declared_duration=2.0)
        result = execute_kernel(spec, ws)
        assert result.exit_status == 0
        assert result.outputs == {"d": ws.checksum("d")}
        assert list(decode_dataset(ws.get("d"))) == [1.0, 2.0]

    def test_unknown_kernel_exits_127(self, tmp_path):
        ws = Workspace(tmp_path)
        result = execute_kernel(KernelSpec(name="no-such-kernel"), ws)
        assert result.exit_status == 127
        assert "no-such-kernel" in (result.error or "")

    def test_missing_input_raises(self, tmp_path):
        ws = Workspace(tmp_path)
        spec = KernelSpec(name="noop", inputs=("ghost",))
        with pytest.raises(MissingInput):
            execute_kernel(spec, ws)

    def test_dropped_input_is_missing_inside_and_after_the_kernel(
            self, tmp_path, monkeypatch):
        """Every get checks the record, also a kernel's get of an input
        that execute_kernel checked before calling it."""
        ws = Workspace(tmp_path)
        ws.put("x", b"1")
        ws.put("y", b"2")

        def twice(spec, ws):
            return {"z": b"".join(ws.get(d) for d in spec.inputs * 2)}

        def drops_then_reads(spec, ws):
            ws.drop("y")
            return {"w": ws.get("y")}

        monkeypatch.setitem(KERNELS, "twice", twice)
        monkeypatch.setitem(KERNELS, "drops_then_reads", drops_then_reads)
        result = execute_kernel(KernelSpec(name="twice", inputs=("x", "y"),
                                           outputs=("z",)), ws)
        assert result.exit_status == 0
        ws.drop("x")
        with pytest.raises(MissingInput):
            ws.get("x")
        assert ws.get("z") == b"1212"
        with pytest.raises(MissingInput):
            execute_kernel(KernelSpec(name="drops_then_reads", inputs=("y",),
                                      outputs=("w",)), ws)

    def test_kernel_exception_becomes_exit_1(self, tmp_path):
        @register_kernel("boom")
        def _boom(spec, ws):
            raise RuntimeError("kaboom")
        ws = Workspace(tmp_path)
        result = execute_kernel(KernelSpec(name="boom"), ws)
        assert result.exit_status == 1
        assert "kaboom" in result.error

    def test_undeclared_output_is_failure(self, tmp_path):
        @register_kernel("forgets")
        def _forgets(spec, ws):
            return {}
        ws = Workspace(tmp_path)
        result = execute_kernel(KernelSpec(name="forgets",
                                           outputs=("d",)), ws)
        assert result.exit_status == 1
        assert "d" in result.error

    def test_shell_kernel_smoke(self, tmp_path):
        ws = Workspace(tmp_path)
        out_name = "run%2Fout.dat"  # the workspace file of id "run/out"
        spec = KernelSpec(
            name="shell",
            params={"argv": [sys.executable, "-c",
                             f"open({out_name!r}, 'wb').write(b'ok')"]},
            outputs=("run/out",))
        result = execute_kernel(spec, ws)
        assert result.exit_status == 0
        assert result.outputs == {"run/out": checksum_hex(b"ok")}
        assert ws.get("run/out") == b"ok"

    def test_shell_kernel_reads_its_inputs_as_files(self, tmp_path):
        """The command sees each declared input as <quoted id>.dat in its
        working directory, which is gone when the kernel returns."""
        ws = Workspace(tmp_path)
        payload = encode_dataset([1.0, 2.5])
        ws.put("in/put", payload)
        spec = KernelSpec(
            name="shell",
            params={"argv": [sys.executable, "-c",
                             "import shutil; "
                             "shutil.copy('in%2Fput.dat', 'copy.dat')"]},
            inputs=("in/put",), outputs=("copy",))
        result = execute_kernel(spec, ws)
        assert result.exit_status == 0, result.error
        assert result.outputs == {"copy": checksum_hex(payload)}
        assert Workspace(tmp_path).get("copy") == payload
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["workspace.dat", "workspace.jsonl"]

    def test_shell_kernel_missing_output(self, tmp_path):
        ws = Workspace(tmp_path)
        spec = KernelSpec(name="shell",
                          params={"argv": [sys.executable, "-c", "pass"]},
                          outputs=("out",))
        result = execute_kernel(spec, ws)
        assert result.exit_status == 1
        assert "did not write 'out'" in result.error

    def test_shell_kernel_failure(self, tmp_path):
        ws = Workspace(tmp_path)
        spec = KernelSpec(name="shell",
                          params={"argv": [sys.executable, "-c",
                                           "raise SystemExit(3)"]})
        result = execute_kernel(spec, ws)
        assert result.exit_status == 1
        assert "3" in result.error
