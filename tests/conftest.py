import json
import math

import numpy as np
import pytest
from scipy import sparse

from wgspec import curves, fem, shapederiv
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


def _row_dot(a, b):
    """Row dot products of two (n, 3) arrays."""
    return np.einsum("ij,ij->i", a, b)


def _row_frame(curve, N):
    """The curve kernels by the (n, 3) row formulas: einsum row dots,
    np.cross and a gather from np.eye(3).  The oracle of the (3, n) kernels
    of wgspec.curves.

    Returns a dict: arclength_resample's s, panel, t, tangent and dtangent;
    rapf's e2, e3, k1, k2 and kappa from default_transverse_frame, with the
    per-node frame defect and the per-step turning angles; and the closed
    form kappa = |gamma' x gamma''| / |gamma'|^3 at the nodes.
    """
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(5)
    t = np.linspace(float(curve.t0), float(curve.t1), N + 1)
    mid = 0.5 * (t[:-1] + t[1:])
    half = 0.5 * (t[1:] - t[:-1])
    vel = curve.dgamma(np.concatenate([(mid[:, None] + half[:, None] * gauss_x).ravel(), t]))
    speeds = np.sqrt(_row_dot(vel, vel))
    panel = speeds[:5 * N].reshape(N, 5) @ gauss_w * half
    vel, speed = vel[5 * N:], speeds[5 * N:, None]
    T = vel / speed
    acc = curve.ddgamma(t)
    dT = (acc - _row_dot(acc, T)[:, None] * T) / speed**2

    e2_0, _ = curves.default_transverse_frame(T[0])
    bis = T[:-1] + T[1:]
    gap = T[1:] - T[:-1]
    bb = _row_dot(bis, bis)
    turn = 2.0 * np.arctan2(np.sqrt(_row_dot(gap, gap)), np.sqrt(bb))
    u = np.cross(np.eye(3)[np.argmin(np.abs(T), axis=1)], T)
    u /= np.sqrt(_row_dot(u, u))[:, None]
    v = np.cross(T, u)
    w = u[:-1] - (2.0 * _row_dot(bis, u[:-1]) / bb)[:, None] * bis
    w -= (2.0 * _row_dot(T[1:], w))[:, None] * T[1:]
    alpha = np.arctan2(_row_dot(w, v[1:]), _row_dot(w, u[1:]))
    theta = math.atan2(e2_0 @ v[0], e2_0 @ u[0]) + np.concatenate([[0.0], np.cumsum(alpha)])
    cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
    e2 = cos * u + sin * v
    e3 = cos * v - sin * u
    defect = np.abs([_row_dot(T, T) - 1.0, _row_dot(e2, e2) - 1.0, _row_dot(e3, e3) - 1.0,
                     _row_dot(T, e2), _row_dot(T, e3), _row_dot(e2, e3)]).max(axis=0)

    n = np.cross(vel, acc)
    return {
        "s": np.concatenate([[0.0], np.cumsum(panel)]), "panel": panel, "t": t,
        "tangent": T, "dtangent": dT, "e2": e2, "e3": e3,
        "k1": _row_dot(dT, e2), "k2": _row_dot(dT, e3), "kappa": np.sqrt(_row_dot(dT, dT)),
        "defect": defect, "turn": turn,
        "closed_form_kappa": np.sqrt(_row_dot(n, n)) / _row_dot(vel, vel) ** 1.5,
    }


@pytest.fixture(scope="session")
def row_frame():
    """_row_frame(curve, N), the (n, 3) oracle of the curve kernels."""
    return _row_frame


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
