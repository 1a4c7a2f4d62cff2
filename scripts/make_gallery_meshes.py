#!/usr/bin/env python3
"""Export the mesh gallery: the six discriminant normal forms plus the two
closed-form envelopes (cylinder of the radially framed circle, tangent
developable of the helix), each with its singular locus overlay.
"""

import argparse
import os

import numpy as np

from framedcurves import (
    NormalFormFamily,
    discriminant_mesh,
    envelope_mesh,
    export_obj,
    export_polylines,
    hyperplane_family,
    singular_locus,
)
from framedcurves.examples import BUILTIN_TYPES, helix_frenet_field, radial_circle_field


def write_pair(out, stem, mesh, locus):
    mesh_path = os.path.join(out, f"{stem}.obj")
    export_obj(mesh, mesh_path)
    locus_path = os.path.join(out, f"{stem}.locus.obj")
    export_polylines(locus, locus_path)
    print(f"wrote {mesh_path} ({len(mesh.vertices)} vertices) and {locus_path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/gallery", help="output directory")
    ap.add_argument("--t-samples", type=int, default=161)
    ap.add_argument("--s-samples", type=int, default=41)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    t_grid = np.linspace(-1.0, 1.0, args.t_samples)
    s_grid = np.linspace(-1.0, 1.0, args.s_samples)

    for a in BUILTIN_TYPES:
        nf = NormalFormFamily(a)
        mesh = discriminant_mesh(nf, t_grid, s_grid)
        locus = singular_locus(nf, t_grid)
        write_pair(args.out, "normal-form-%d%d%d" % a, mesh, locus)

    for name, factory, nodes in (
        ("cylinder", radial_circle_field, np.linspace(0.0, 2 * np.pi, 200)),
        ("helix-developable", helix_frenet_field, np.linspace(-np.pi, np.pi, 200)),
    ):
        fam = hyperplane_family(factory(nodes))
        strip_grid = np.linspace(-1.5, 1.5, args.s_samples)
        mesh = envelope_mesh(fam, s_grid=strip_grid)
        locus = singular_locus(fam, strip_grid)
        write_pair(args.out, name, mesh, locus)


if __name__ == "__main__":
    main()
