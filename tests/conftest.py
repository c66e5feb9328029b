import json

import numpy as np
import pytest
from scipy import sparse

from wgspec import fem, shapederiv
from wgspec.mesh import _edge_normals


def _top_bump(mesh, center):
    """A cos^2 bump of half-width 0.5 at x = center pushing the top side
    up, zero elsewhere: the velocity field of the shape-fd benchmark."""
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    V = np.zeros_like(mesh.vertices)
    on_top = np.abs(y - y.max()) < 1e-12
    prof = np.cos(np.pi * (x - center)) ** 2 * (np.abs(x - center) < 0.5)
    V[on_top, 1] = prof[on_top]
    return V


@pytest.fixture(scope="session")
def top_bump():
    """_top_bump(mesh, center), the velocity field shared by the fem and
    shape-derivative tests."""
    return _top_bump


@pytest.fixture
def factorizations(monkeypatch):
    """The names of the factorization entry points called, in call order:
    "_factor_spd" for each positive definite P1 matrix and "_splu_spd" for
    each SuperLU factorization, so a P1 matrix on SuperLU's side of
    fem.BAND_LIMIT adds both."""
    calls = []

    def spy(name, original):
        def record(A):
            calls.append(name)
            return original(A)
        return record

    factor_spd = spy("_factor_spd", fem._factor_spd)
    monkeypatch.setattr(fem, "_factor_spd", factor_spd)
    monkeypatch.setattr(shapederiv, "_factor_spd", factor_spd)
    monkeypatch.setattr(fem, "_splu_spd", spy("_splu_spd", fem._splu_spd))
    return calls


def _assemble_derivative(mesh, V):
    """(dK, dM), the exact derivatives at t = 0 of fem.assemble(perturb(mesh,
    V, t)) for the vertex velocities V, shape (nv, 2), on the same pattern:
    the oracle of shapederiv._x_gradient.

    Per triangle g_i = J (p_{i+1} - p_{i+2}) (mesh._edge_normals), J the
    turn by -90 degrees, so dg_i = J (V_{i+1} - V_{i+2}) and d(area2) =
    sum_i g_i . V_i.  With G_ij = g_i . g_j the
    stiffness element is G / (2 area2), whose derivative is (dG + dG^T) /
    (2 area2) - G d(area2) / (2 area2^2) for dG_ij = dg_i . g_j; the mass
    element is proportional to area2.
    """
    area2, g = _edge_normals(mesh.vertices, mesh.triangles)
    v = np.asarray(V, dtype=float)[mesh.triangles]
    darea2 = np.einsum("tik,tik->t", g, v)
    dv = v[:, [1, 2, 0]] - v[:, [2, 0, 1]]
    dg = np.stack([dv[..., 1], -dv[..., 0]], axis=-1)
    dG = np.einsum("tik,tjk->tij", dg, g)
    G = np.einsum("tik,tjk->tij", g, g)
    dke = ((dG + dG.transpose(0, 2, 1) - G * (darea2 / area2)[:, None, None])
           / (2.0 * area2)[:, None, None])
    conn = mesh.connectivity
    n = mesh.num_vertices
    return tuple(
        sparse.csr_matrix((np.bincount(conn.scatter.ravel(), e.ravel(),
                                       len(conn.indices)),
                           conn.indices, conn.indptr), shape=(n, n))
        for e in (dke.reshape(-1, 9), np.outer(darea2 / 24.0, fem._MASS))
    )


@pytest.fixture(scope="session")
def assemble_derivative():
    """_assemble_derivative(mesh, V), the derivatives of the P1 matrices
    shared by the fem and shape-derivative tests."""
    return _assemble_derivative


def _gmsh22_text(mesh):
    """mesh as Gmsh MSH 2.2 ASCII text: 1-based node numbers, coordinates
    to 17 significant digits, one 3-node triangle element per triangle."""
    nodes = [f"{i} {x:.16e} {y:.16e} 0"
             for i, (x, y) in enumerate(mesh.vertices, start=1)]
    elements = [f"{i} 2 2 0 0 {a + 1} {b + 1} {c + 1}"
                for i, (a, b, c) in enumerate(mesh.triangles, start=1)]
    return "\n".join(["$MeshFormat", "2.2 0 8", "$EndMeshFormat",
                      "$Nodes", str(len(nodes)), *nodes, "$EndNodes",
                      "$Elements", str(len(elements)), *elements,
                      "$EndElements", ""])


def _mesh_json(mesh):
    """mesh in the JSON form that mesh_from_json reads: 0-based triangles,
    coordinates that round-trip exactly."""
    return json.dumps({"vertices": mesh.vertices.tolist(),
                       "triangles": mesh.triangles.tolist()})


@pytest.fixture(scope="session")
def gmsh22_text():
    """_gmsh22_text(mesh), the writer for the Gmsh reader's tests."""
    return _gmsh22_text


@pytest.fixture(scope="session")
def mesh_json():
    """_mesh_json(mesh), the writer for the JSON reader's tests."""
    return _mesh_json
