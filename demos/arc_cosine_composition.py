#!/usr/bin/env python3

"""
Arc-cosine kernels and their depth-wise composition
===================================================

The kernel depends on inputs only through their norms and the angle
between them, so a handful of hand-picked vector pairs tells the whole
story.
"""

import numpy as np

from mlmkl.kernels import KernelFamily, KernelSpec, evaluate


def arc_cosine(x, y, degree, depth=1):
    return evaluate(KernelSpec(KernelFamily.ARC_COSINE, degree=degree, depth=depth), x, y)


x = np.array([1.0, 0.0])
y = np.array([0.0, 1.0])

# Orthogonal unit vectors at every degree: the angular factor alone.
print("orthogonal pair, depth 1:")
for degree in (0, 1, 2):
    print("  degree %d: %.6f" % (degree, arc_cosine(x, y, degree)))

# Degree 0 ignores magnitudes completely.
print("\ndegree-0 scale invariance:")
for scale in (0.1, 1.0, 25.0):
    print("  k0(%5.1f x, y) = %.6f" % (scale, arc_cosine(scale * x, y, 0)))

# Composing the kernel with itself mimics stacking random threshold
# layers.  Orthogonal inputs drift toward each other with depth: each
# layer maps them to points with a smaller angle in between.
print("\ndegree 1, orthogonal pair, increasing depth:")
for depth in range(1, 7):
    value = arc_cosine(x, y, 1, depth=depth)
    theta = np.arccos(np.clip(value, -1.0, 1.0))
    print("  depth %d: k = %.6f  (effective angle %.1f deg)" % (depth, value, np.degrees(theta)))

# The self-kernel of degree 0 stays exactly 1 at any depth, and the
# degree-1 self-kernel stays the squared norm; both are fixed points of
# the recursion.
v = np.array([0.3, -0.8, 0.5])
print("\nself-kernel fixed points:")
print("  k0(v,v) depth 5: %.15f" % arc_cosine(v, v, 0, depth=5))
print("  k1(v,v) depth 5: %.15f  (|v|^2 = %.15f)" % (arc_cosine(v, v, 1, depth=5), v @ v))

# A range of angles at depth 1 and 3, degree 1: composition is a
# monotone warp of the angle.
print("\nangle sweep, degree 1:")
print("  angle   depth1   depth3")
for deg in (0, 30, 60, 90, 120, 180):
    theta = np.radians(deg)
    a = np.array([1.0, 0.0])
    b = np.array([np.cos(theta), np.sin(theta)])
    print("  %5d   %.4f   %.4f" % (deg, arc_cosine(a, b, 1), arc_cosine(a, b, 1, depth=3)))
