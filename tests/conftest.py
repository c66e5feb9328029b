import json

import numpy as np
import pytest


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
