"""Betti numbers of genus-0 stable-map moduli for Grassmannian targets.

Two independent computation routes for the Poincare polynomial of the
space of degree-d (d <= 3) genus-0 stable maps to G(k, n):

* `localization` -- exact torus localization: q^(positive tangent weights)
  summed over the fixed decorated trees (`fixedgraphs`), from per-edge,
  per-end and per-vertex terms of the int-encoded tangent weights
  (`weights`), checked for parity, exponent range and the fixed-point
  census, in total and per shape; the per-tree assembly stays for
  `--reports` and as the tests' oracle;
* `closedform` -- evaluation of closed-form generating functions.

Both produce exact integer polynomials in q (`qpoly`), with coefficient
of q^i the 2i-th Betti number.  The `grassmap` command line front-end
lives in `cli`, and the self-check suites it runs in `checks`.

The package itself exports only `__version__` and imports none of these
modules: callers import the submodule they use, e.g.
`from grassmap.localization import poincare_localization`.
"""

__version__ = "0.1.0"
