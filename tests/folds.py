"""Fold measure of thin-plate-spline warps, shared by the tests."""

import numpy as np

from morphkit import geometry as geo


def fold_share(source_lms, target_lms, size):
    """Share of the pixels inside the bounding box of ``target_lms`` where
    the warp of a ``size`` x ``size`` image from ``source_lms`` onto
    ``target_lms`` folds.

    The warp samples its source through the inverse TPS map, target to
    source.  A pixel folds where that map's Jacobian determinant, taken by
    ``np.gradient`` central differences on the pixel grid, is <= 0.
    """
    target = np.asarray(target_lms, dtype=np.float64)
    # the map ``geometry.warp_images`` samples through, built as it builds it
    fit = geo.tps_fit(target, source_lms)
    u = geo._grid_kernel_matrix(size, size, target)
    mx, my = geo._tps_map(fit, geo._pixel_grid(size, size), u).T.reshape(2, size, size)
    dmx_dy, dmx_dx = np.gradient(mx)
    dmy_dy, dmy_dx = np.gradient(my)
    det = dmx_dx * dmy_dy - dmx_dy * dmy_dx
    (x0, y0), (x1, y1) = np.ceil(target.min(axis=0)), np.floor(target.max(axis=0))
    box = det[int(y0):int(y1) + 1, int(x0):int(x1) + 1]
    return np.count_nonzero(box <= 0) / box.size
