"""Serialization round trips and document validation errors."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfeedback import (
    AnnihilationQSys,
    ControllerModel,
    CostOutput,
    GeneralQSys,
    PlantModel,
    load_system,
    save_system,
)
from qfeedback.errors import DomainError, FileFormatError
from qfeedback.fileio import (
    document_to_model,
    entries_to_matrix,
    matrix_to_entries,
    model_to_document,
)
from qfeedback.linalg import delta_build

from conftest import ROOT2, one_port_cavity, two_port_cavity_plant


def detuned_general():
    f = delta_build(np.array([[-1j - 0.5]]), np.zeros((1, 1)))
    g = delta_build(-np.eye(1), np.zeros((1, 1)))
    h = delta_build(np.eye(1), np.zeros((1, 1)))
    return GeneralQSys(f=f, g=g, h=h, k=np.eye(2))


def sample_controller():
    return ControllerModel(
        kind="annihilation",
        f_c=[[-1.0]],
        g_cw=[[0.5, 0.0]],
        g_cy=[[1.0]],
        h_c=[[0.25]],
        k_cw=[[1.0, 0.0]],
        k_cy=[[0.0]],
    )


def same_matrices(a, b, names):
    for nm in names:
        assert np.array_equal(np.asarray(getattr(a, nm)), np.asarray(getattr(b, nm)))


class TestRoundTrips:
    def test_annihilation_round_trip_exact(self, tmp_path):
        path = tmp_path / "sys.json"
        sys_in = one_port_cavity()
        save_system(path, sys_in)
        loaded = load_system(path)
        assert loaded.kind == "annihilation"
        assert isinstance(loaded.model, AnnihilationQSys)
        assert loaded.model.n_modes == 1 and loaded.model.m_fields == 1
        same_matrices(sys_in, loaded.model, ("f", "g", "h", "k"))

    def test_general_round_trip_exact(self, tmp_path):
        path = tmp_path / "gen.json"
        sys_in = detuned_general()
        save_system(path, sys_in)
        loaded = load_system(path)
        assert loaded.kind == "general"
        assert isinstance(loaded.model, GeneralQSys)
        assert loaded.model.n_modes == 1 and loaded.model.m_fields == 1
        same_matrices(sys_in, loaded.model, ("f", "g", "h", "k"))

    def test_plant_round_trip_with_cost_and_metadata(self, tmp_path):
        path = tmp_path / "plant.json"
        plant = two_port_cavity_plant(with_cost=True)
        save_system(path, plant, metadata={"label": "two-port cavity", "note": 7})
        loaded = load_system(path)
        assert loaded.kind == "plant"
        assert isinstance(loaded.model, PlantModel)
        assert loaded.model.kind == "annihilation"
        assert loaded.metadata == {"label": "two-port cavity", "note": 7}
        same_matrices(plant, loaded.model, ("f", "g_w", "g_u", "h", "k"))
        assert loaded.model.cost is not None
        assert np.array_equal(loaded.model.cost.c, plant.cost.c)
        assert np.array_equal(loaded.model.cost.d, plant.cost.d)

    def test_plant_without_cost_omits_cost_block(self, tmp_path):
        path = tmp_path / "plant.json"
        save_system(path, two_port_cavity_plant())
        doc = json.loads(path.read_text())
        assert "cost" not in doc
        assert load_system(path).model.cost is None

    def test_controller_round_trip_exact(self, tmp_path):
        path = tmp_path / "ctrl.json"
        ctrl = sample_controller()
        save_system(path, ctrl)
        loaded = load_system(path)
        assert loaded.kind == "controller"
        assert isinstance(loaded.model, ControllerModel)
        assert (loaded.model.n_modes, loaded.model.m_wt) == (1, 2)
        assert (loaded.model.m_y, loaded.model.m_u) == (1, 1)
        same_matrices(
            ctrl, loaded.model, ("f_c", "g_cw", "g_cy", "h_c", "k_cw", "k_cy")
        )

    def test_save_load_save_is_bit_identical(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_system(first, two_port_cavity_plant(with_cost=True), metadata={"x": 1})
        loaded = load_system(first)
        save_system(second, loaded.model, metadata=loaded.metadata)
        assert first.read_bytes() == second.read_bytes()

    def test_zero_width_control_channel_round_trip(self, tmp_path):
        plant = PlantModel(
            kind="annihilation",
            f=[[-1.0]],
            g_w=[[-ROOT2]],
            g_u=np.zeros((1, 0)),
            h=[[ROOT2]],
            k=[[1.0]],
            cost=CostOutput(c=[[1.0]], d=np.zeros((1, 0))),
        )
        path = tmp_path / "nocontrol.json"
        save_system(path, plant)
        loaded = load_system(path)
        assert loaded.model.m_u == 0
        assert loaded.model.g_u.shape == (1, 0)
        assert loaded.model.cost.d.shape == (1, 0)

    def test_document_is_indented_json_with_trailing_newline(self, tmp_path):
        path = tmp_path / "sys.json"
        save_system(path, one_port_cavity())
        text = path.read_text()
        assert text.endswith("\n")
        assert text.startswith("{\n  \"schema_version\": 1,")

    def test_document_structure_for_plant(self):
        doc = model_to_document(two_port_cavity_plant(with_cost=True))
        assert doc["schema_version"] == 1
        assert doc["kind"] == "plant"
        assert doc["representation"] == "annihilation"
        assert doc["dimensions"] == {"n_modes": 1, "m_w": 1, "m_u": 1, "m_y": 1}
        assert set(doc["matrices"]) == {"f", "g_w", "g_u", "h", "k"}
        assert set(doc["cost"]) == {"c", "d"}
        assert doc["matrices"]["f"] == [[[-1.0, 0.0]]]

    def test_entry_encoding_is_lossless(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            rows, cols = rng.integers(1, 5, size=2)
            mat = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal(
                (rows, cols)
            )
            encoded = matrix_to_entries(mat)
            decoded = entries_to_matrix(encoded, "matrices.f")
            assert np.array_equal(decoded, mat)


def random_model(rng: np.random.Generator, doc_kind: str, rep: str, with_cost: bool):
    """A model with dimensions 0-3 and entries at scales 1e-12 to 1e12."""

    def draw(rows, cols):
        scale = 10.0 ** rng.uniform(-12.0, 12.0)
        a1, a2 = scale * (rng.standard_normal((2, rows, cols)) + 1j * rng.standard_normal((2, rows, cols)))
        return delta_build(a1, a2) if rep == "general" else a1

    n, a, b, c = (int(v) for v in rng.integers(0, 4, 4))
    if doc_kind == "system":
        cls = GeneralQSys if rep == "general" else AnnihilationQSys
        return cls(f=draw(n, n), g=draw(n, a), h=draw(a, n), k=draw(a, a))
    if doc_kind == "plant":
        rows = int(rng.integers(0, 3))
        cost = CostOutput(c=draw(rows, n), d=draw(rows, b)) if with_cost else None
        return PlantModel(
            kind=rep, f=draw(n, n), g_w=draw(n, a), g_u=draw(n, b), h=draw(c, n), k=draw(c, a),
            cost=cost,
        )
    return ControllerModel(
        kind=rep, f_c=draw(n, n), g_cw=draw(n, a), g_cy=draw(n, b), h_c=draw(c, n),
        k_cw=draw(c, a), k_cy=draw(c, b),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    doc_kind=st.sampled_from(["system", "plant", "controller"]),
    rep=st.sampled_from(["annihilation", "general"]),
    with_cost=st.booleans(),
)
def test_save_load_save_is_bit_identical_for_every_document_kind(
    tmp_path_factory, seed, doc_kind, rep, with_cost
):
    model = random_model(np.random.default_rng(seed), doc_kind, rep, with_cost)
    root = tmp_path_factory.mktemp("round_trip")
    save_system(root / "a.json", model, metadata={"seed": seed})
    loaded = load_system(root / "a.json")
    save_system(root / "b.json", loaded.model, metadata=loaded.metadata)
    assert (root / "a.json").read_bytes() == (root / "b.json").read_bytes()
    assert type(loaded.model) is type(model) and loaded.model.kind == rep
    assert json.loads((root / "a.json").read_text())["kind"] == (
        rep if doc_kind == "system" else doc_kind
    )


def cavity_doc(**overrides):
    doc = model_to_document(one_port_cavity())
    doc.update(overrides)
    return doc


class TestValidation:
    def test_missing_schema_version(self):
        doc = cavity_doc()
        del doc["schema_version"]
        with pytest.raises(FileFormatError, match="missing required field"):
            document_to_model(doc)

    def test_unsupported_schema_version(self):
        with pytest.raises(FileFormatError, match="unsupported schema_version 2"):
            document_to_model(cavity_doc(schema_version=2))

    def test_unknown_kind(self):
        with pytest.raises(FileFormatError, match="unknown kind 'oscillator'"):
            document_to_model(cavity_doc(kind="oscillator"))

    def test_top_level_must_be_object(self):
        with pytest.raises(FileFormatError, match="document must be an object"):
            document_to_model([1, 2, 3])

    def test_scalar_entry_rejected_with_location(self):
        doc = cavity_doc()
        doc["matrices"]["f"] = [[1]]
        with pytest.raises(FileFormatError, match=r"entry must be \[re, im\]") as info:
            document_to_model(doc)
        assert info.value.location == "matrices.f[0][0]"

    def test_nonfinite_entry_rejected(self):
        doc = cavity_doc()
        doc["matrices"]["g"] = [[[float("inf"), 0.0]]]
        with pytest.raises(FileFormatError, match="entry must be finite"):
            document_to_model(doc)

    def test_shape_must_match_declared_dimensions(self):
        doc = cavity_doc(dimensions={"n_modes": 2, "m_fields": 1})
        with pytest.raises(FileFormatError, match="does not match declared"):
            document_to_model(doc)

    def test_dimensions_must_be_nonnegative_integers(self):
        for bad in ("one", -1, True, None, 1.5):
            doc = cavity_doc(dimensions={"n_modes": bad, "m_fields": 1})
            with pytest.raises(FileFormatError, match="nonnegative integer"):
                document_to_model(doc)

    def test_missing_matrix(self):
        doc = cavity_doc()
        del doc["matrices"]["g"]
        with pytest.raises(FileFormatError, match="missing required field 'g'"):
            document_to_model(doc)

    def test_matrices_must_be_object(self):
        with pytest.raises(FileFormatError, match="must be an object"):
            document_to_model(cavity_doc(matrices=[1]))

    def test_metadata_must_be_object(self):
        with pytest.raises(FileFormatError, match="must be an object"):
            document_to_model(cavity_doc(metadata="notes"))

    def test_invalid_representation(self):
        doc = model_to_document(two_port_cavity_plant())
        doc["representation"] = "position"
        with pytest.raises(FileFormatError, match="representation must be"):
            document_to_model(doc)

    def test_general_document_needs_doubled_blocks(self):
        doc = model_to_document(detuned_general())
        doc["matrices"]["f"] = [[[1, 0], [2, 0]], [[3, 0], [4, 0]]]
        with pytest.raises(FileFormatError) as info:
            document_to_model(doc)
        assert info.value.location == "matrices"

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError, match="cannot read file"):
            load_system(tmp_path / "absent.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError, match="invalid JSON"):
            load_system(path)

    def test_serialize_rejects_foreign_object(self):
        with pytest.raises(DomainError, match="cannot serialize"):
            model_to_document({"f": [[1.0]]})
