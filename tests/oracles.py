"""Hand-rolled reference implementations the tests compare against.

These are deliberately written with different machinery than the library
(3x3 homogeneous matrices instead of incremental 2x2 updates, scalar
Python loops instead of vectorized numpy) so that agreement means
something.
"""

import math

import numpy as np

from fvl import diffcore as dc
from fvl.dataio import MIN_BOX_PX, NEAR_PLANE_M, PAINT_PAD_PX
from fvl.egomotion import rotation_matrix
from fvl.errors import ValidationError


def from_corners(x0, y0, x1, y1):
    """The box (cx, cy, w, h) with corners (x0, y0) and (x1, y1)."""
    return ((x0 + x1) / 2.0, (y0 + y1) / 2.0, x1 - x0, y1 - y0)


def corners(box):
    """(x0, y0, x1, y1) of a box (cx, cy, w, h)."""
    cx, cy, w, h = box
    return (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


def track_boxes(track):
    """A track array as {frame: (cx, cy, w, h)}, the form the scalar
    oracles read it in."""
    return {frame: tuple(box) for frame, box in
            zip(track["frame"].tolist(), track["box"].tolist())}


def homogeneous_compose(steps):
    """Chain planar step rows [yaw, x, z] by multiplying 3x3 homogeneous
    matrices.

    Returns one (yaw, x, z) triple per step, pose of that frame in the
    first frame's coordinates.
    """
    pose = np.eye(3)
    features = []
    for yaw, x, z in steps:
        local = np.eye(3)
        local[:2, :2] = rotation_matrix(yaw)
        local[:2, 2] = (x, z)
        pose = pose @ local
        yaw = math.atan2(pose[1, 0], pose[0, 0])
        features.append((yaw, pose[0, 2], pose[1, 2]))
    return features


def bilinear_at(plane, x, y):
    """Scalar bilinear sample of plane[row, col] at point (x, y), with
    pixel centers at half-integers and border clamping."""
    height = len(plane)
    width = len(plane[0])

    def clamp(i, hi):
        return max(0, min(i, hi))

    gx = x - 0.5
    gy = y - 0.5
    x0 = math.floor(gx)
    y0 = math.floor(gy)
    fx = gx - x0
    fy = gy - y0
    v00 = plane[clamp(y0, height - 1)][clamp(x0, width - 1)]
    v01 = plane[clamp(y0, height - 1)][clamp(x0 + 1, width - 1)]
    v10 = plane[clamp(y0 + 1, height - 1)][clamp(x0, width - 1)]
    v11 = plane[clamp(y0 + 1, height - 1)][clamp(x0 + 1, width - 1)]
    top = v00 * (1.0 - fx) + v01 * fx
    bottom = v10 * (1.0 - fx) + v11 * fx
    return top * (1.0 - fy) + bottom * fy


def pool_oracle(grid, roi, n):
    """Reference ROI pooling: explicit loops over the sample lattice."""
    x0, y0, x1, y1 = corners(roi)
    out = []
    for a in range(n):
        for b in range(n):
            sx = x0 + (b + 0.5) * (x1 - x0) / n
            sy = y0 + (a + 0.5) * (y1 - y0) / n
            u = bilinear_at(grid[:, :, 0].tolist(), sx, sy)
            v = bilinear_at(grid[:, :, 1].tolist(), sx, sy)
            out.extend([u, v])
    return np.asarray(out)


def background_flow_oracle(camera, headings, positions, t, ix0, iy0, ix1, iy1):
    """Ground flow over the pixel rectangle [ix0, ix1) x [iy0, iy1) of
    frame t, computed over every pixel and then masked to the ground rows
    and to points ahead of both cameras.

    Unlike the generator it never skips rows, but each pixel goes through
    the same operations in the same order, so the generator must match it
    bit for bit.  `headings` and `positions`
    hold the simulated ego pose of each frame.
    """
    def rotation(angle):
        c, s = math.cos(angle), math.sin(angle)
        return np.array([[c, -s], [s, c]])

    out = np.zeros((iy1 - iy0, ix1 - ix0, 2))
    u = (np.arange(ix0, ix1) + 0.5)[None, :]
    v = (np.arange(iy0, iy1) + 0.5)[:, None]
    dv = v - camera.ppy
    ground = dv > 0.5
    safe_dv = np.where(ground, dv, 1.0)
    depth = camera.focal * camera.cam_height / safe_dv
    x_cam = (u - camera.ppx) * depth / camera.focal
    d_fwd, d_left = depth, -x_cam
    rot_t = rotation(headings[t])
    pos_t = positions[t]
    gx = pos_t[0] + rot_t[0, 0] * d_fwd + rot_t[0, 1] * d_left
    gz = pos_t[1] + rot_t[1, 0] * d_fwd + rot_t[1, 1] * d_left

    def reproject(frame):
        rot = rotation(headings[frame])
        pos = positions[frame]
        rx, rz = gx - pos[0], gz - pos[1]
        fwd = rot[0, 0] * rx + rot[1, 0] * rz
        left = rot[0, 1] * rx + rot[1, 1] * rz
        safe = np.where(~(fwd < 0.5), fwd, 1.0)
        u_px = camera.focal * (-left) / safe + camera.ppx
        v_px = camera.focal * camera.cam_height / safe + camera.ppy
        return fwd, u_px, v_px

    fwd_now, u_now, v_now = reproject(t)
    fwd_prev, u_prev, v_prev = reproject(t - 1)
    visible = ground & ~(fwd_prev < 0.5) & ~(fwd_now < 0.5)
    out[..., 0] = np.where(visible, u_now - u_prev, 0.0)
    out[..., 1] = np.where(visible, v_now - v_prev, 0.0)
    return out


def ego_poses(video):
    """Each frame's simulated (heading, position), chained step by step."""
    headings, positions = [0.0], [np.zeros(2)]
    for yaw, x, z in video.ego_steps.tolist():
        positions.append(
            positions[-1] + rotation_matrix(headings[-1]) @ np.array([x, z]))
        headings.append(headings[-1] + yaw)
    return headings, positions


def rectangle_flow(video, t, ix0, iy0, ix1, iy1):
    """Frame t's flow over the pixel rectangle [ix0, ix1) x [iy0, iy1) of
    a generated video: the rectangle renderer the generator used before
    it rendered single pixels, kept as the full-frame reference.

    The ground comes from `background_flow_oracle`; then each actor's
    padded box is painted as one slice, far to near, so the nearest
    actor wins overlaps.
    """
    out = np.zeros((iy1 - iy0, ix1 - ix0, 2))
    if t == 0 or out.size == 0:
        return out
    headings, positions = ego_poses(video)
    out[:] = background_flow_oracle(video.scenario.camera, headings, positions,
                                    t, ix0, iy0, ix1, iy1)
    tracks = {track: track_boxes(rows) for track, rows in video.tracks.items()}
    order = sorted((track for track, frames in tracks.items() if t in frames),
                   key=lambda track: -video._depths[track][t])
    for track in order:
        box = tracks[track][t]
        previous = tracks[track].get(t - 1)
        disp = (0.0, 0.0) if previous is None else \
            (box[0] - previous[0], box[1] - previous[1])
        x0, y0, x1, y1 = corners(box)
        col0 = max(ix0, math.ceil(x0 - PAINT_PAD_PX - 0.5))
        col1 = min(ix1 - 1, math.floor(x1 + PAINT_PAD_PX - 0.5))
        row0 = max(iy0, math.ceil(y0 - PAINT_PAD_PX - 0.5))
        row1 = min(iy1 - 1, math.floor(y1 + PAINT_PAD_PX - 0.5))
        if col0 <= col1 and row0 <= row1:
            out[row0 - iy0:row1 + 1 - iy0, col0 - ix0:col1 + 1 - ix0] = disp
    return out


def project_actor(camera, ego_heading, ego_position, center, actor, width,
                  height):
    """Project an actor's 3D box in one frame, corner by corner in scalar
    arithmetic, the way the generator did before it projected every
    frame in one array pass; returns ((cx, cy, w, h), depth) or None.  A
    non-finite u or v of a corner, once every corner is past the near
    plane, raises ValidationError."""
    forward = np.array([math.cos(actor.heading), math.sin(actor.heading)])
    lateral = np.array([-forward[1], forward[0]])
    half_l, half_w = actor.length / 2.0, actor.width / 2.0
    rot = rotation_matrix(ego_heading)
    us, vs = [], []
    for sl in (-half_l, half_l):
        for sw in (-half_w, half_w):
            ground = center + sl * forward + sw * lateral
            rel = ground - ego_position
            d_fwd = rot[0, 0] * rel[0] + rot[1, 0] * rel[1]
            d_left = rot[0, 1] * rel[0] + rot[1, 1] * rel[1]
            if d_fwd < NEAR_PLANE_M:
                return None
            x_cam = -d_left
            for elevation in (0.0, actor.height):
                y_cam = camera.cam_height - elevation
                us.append(camera.focal * x_cam / d_fwd + camera.ppx)
                vs.append(camera.focal * y_cam / d_fwd + camera.ppy)
    if not all(map(math.isfinite, us + vs)):
        raise ValidationError(f"corner projects to u={us}, v={vs}")
    rel = center - ego_position
    center_depth = rot[0, 0] * rel[0] + rot[1, 0] * rel[1]
    x0 = max(min(us), 0.0)
    x1 = min(max(us), float(width))
    y0 = max(min(vs), 0.0)
    y1 = min(max(vs), float(height))
    if x1 - x0 < MIN_BOX_PX or y1 - y0 < MIN_BOX_PX:
        return None
    return from_corners(x0, y0, x1, y1), center_depth


def project_tracks(video):
    """(tracks, depths) of a generated video's scenario, from
    `project_actor` frame by frame, each actor stepped along its heading
    one frame at a time."""
    scenario = video.scenario
    headings, positions = ego_poses(video)
    tracks, depths = {}, {}
    for index, actor in enumerate(scenario.actors):
        forward = np.array([math.cos(actor.heading), math.sin(actor.heading)])
        boxes, depth_by_frame = {}, np.full(scenario.frames, np.inf)
        position = np.array([actor.x, actor.z])
        for t in range(scenario.frames):
            projected = project_actor(scenario.camera, headings[t], positions[t],
                                      position, actor, scenario.width,
                                      scenario.height)
            if projected is not None:
                boxes[t], depth_by_frame[t] = projected
            position = position + (actor.speed + actor.accel * t) * forward
        if boxes:
            tracks[index], depths[index] = boxes, depth_by_frame
    return tracks, depths


def two_plane_pool(grid, roi, n):
    """ROI pooling that samples the u and v planes in two separate
    vectorized bilinear passes and then interleaves them.

    Each element goes through the same IEEE operations as the library's
    one-pass [h x w x 2] sampling, so the two must agree bit for bit.
    """
    def bilinear(plane, xs, ys):
        height, width = plane.shape
        gx = xs - 0.5
        gy = ys - 0.5
        x0 = np.floor(gx)
        y0 = np.floor(gy)
        fx = gx - x0
        fy = gy - y0
        c0 = np.clip(x0, 0, width - 1).astype(int)
        c1 = np.clip(x0 + 1, 0, width - 1).astype(int)
        r0 = np.clip(y0, 0, height - 1).astype(int)
        r1 = np.clip(y0 + 1, 0, height - 1).astype(int)
        top = plane[r0, c0] * (1.0 - fx) + plane[r0, c1] * fx
        bottom = plane[r1, c0] * (1.0 - fx) + plane[r1, c1] * fx
        return top * (1.0 - fy) + bottom * fy

    x0, y0, x1, y1 = corners(roi)
    offsets = (np.arange(n) + 0.5) / n
    grid_x, grid_y = np.meshgrid(x0 + offsets * (x1 - x0), y0 + offsets * (y1 - y0))
    values = np.empty(2 * n * n)
    values[0::2] = bilinear(grid[..., 0], grid_x.ravel(), grid_y.ravel())
    values[1::2] = bilinear(grid[..., 1], grid_x.ravel(), grid_y.ravel())
    return values


# --- per-frame windowing --------------------------------------------------------
#
# Windowing pooled one frame per call, one box at a time, before
# it expanded and pooled each run's frames in one array pass; that loop is
# kept here as the oracle the run-level pass must equal bit for bit.


def expand_box(box, factor, image_width, image_height):
    """One box (cx, cy, w, h) grown about its center and clipped to the
    image."""
    if not (math.isfinite(factor) and factor >= 1.0):
        raise ValidationError(
            f"expansion factor must be finite and >= 1, got {factor}")
    cx, cy, w, h = box
    half_w = w * factor / 2.0
    half_h = h * factor / 2.0
    x0 = max(cx - half_w, 0.0)
    y0 = max(cy - half_h, 0.0)
    x1 = min(cx + half_w, float(image_width))
    y1 = min(cy + half_h, float(image_height))
    if x1 <= x0 or y1 <= y0:
        raise ValidationError(
            f"box {list(box)} expanded by {factor} lies outside the "
            f"{image_width}x{image_height} image")
    return from_corners(x0, y0, x1, y1)


def pool_frame(roi, n, width, height, gather):
    """One ROI's n x n lattice, interleaved [2 n^2], from `gather(rows,
    cols)`, which is asked once for the four neighbours of every sample."""
    x0, y0, x1, y1 = corners(roi)
    offsets = (np.arange(n) + 0.5) / n
    grid_x, grid_y = np.meshgrid(x0 + offsets * (x1 - x0), y0 + offsets * (y1 - y0))
    gx = grid_x.ravel() - 0.5
    gy = grid_y.ravel() - 0.5
    left = np.floor(gx)
    top = np.floor(gy)
    fx = (gx - left)[:, None]
    fy = (gy - top)[:, None]
    c0 = np.clip(left, 0, width - 1).astype(int)
    c1 = np.clip(left + 1, 0, width - 1).astype(int)
    r0 = np.clip(top, 0, height - 1).astype(int)
    r1 = np.clip(top + 1, 0, height - 1).astype(int)
    near = gather(np.concatenate([r0, r0, r1, r1]),
                  np.concatenate([c0, c1, c0, c1])).reshape(4, -1, 2)
    upper = near[0] * (1.0 - fx) + near[1] * fx
    lower = near[2] * (1.0 - fx) + near[3] * fx
    return (upper * (1.0 - fy) + lower * fy).ravel()


def window_flows(video, tau, delta, expand, n, frame_grid):
    """The pooled flow of every sample `windows_from_video` makes, pooled
    one past frame per call from `frame_grid(t)`, that frame's whole
    [height x width x 2] flow: one [tau x 2 n^2] array per sample, in
    windowing order."""
    flows = []
    for track in sorted(video.tracks):
        boxes = track_boxes(video.tracks[track])
        frames = sorted(boxes)
        cuts = [i for i in range(1, len(frames)) if frames[i] != frames[i - 1] + 1]
        for a, b in zip([0, *cuts], [*cuts, len(frames)]):
            run = frames[a:b]
            pooled = []
            for t in run[:-delta]:
                roi = expand_box(boxes[t], expand, video.width, video.height)
                grid = frame_grid(t)
                pooled.append(pool_frame(roi, n, video.width, video.height,
                                         lambda rows, cols: grid[rows, cols]))
            flows += [np.array(pooled[start:start + tau])
                      for start in range(len(run) - tau - delta + 1)]
    return flows


# --- the GRU reference chain ---------------------------------------------------
#
# The per-step GRU the library ran before its sequence kernels, kept as
# the oracle they are compared against.  Each function records one tape
# node through `diffcore._emit`, like the library's own primitives.


def gru_step(x, h, w, b):
    """One reset-before-candidate GRU update over row-stacked batches.

    With xh = [x, h], xrh = [x, r * h] and the gate weight w and bias b
    sliced into their update, reset and candidate row blocks:

        z = sigmoid(xh @ w_update.T + b_update)
        r = sigmoid(xh @ w_reset.T + b_reset)
        c = tanh(xrh @ w_cand.T + b_cand)
        out = (1 - z) * h + z * c

    x is [B x in], h is [B x hidden], w [3*hidden x (in + hidden)] and
    b [3*hidden]; each gate's block multiplies [x, h] or [x, r * h]
    unsplit, and the backward is the closed-form adjoint of the lines
    above.  The forward runs over trailing axes, like the library
    kernels, so that the stacked copies of ``diffcore.grad_check`` pass
    through it.
    """
    xv, hv, wv, bv = dc._value(x), dc._value(h), dc._value(w), dc._value(b)
    n_in, hidden = xv.shape[-1], hv.shape[-1]
    blocks = [slice(k * hidden, (k + 1) * hidden) for k in range(3)]
    wz, wr, wc = (wv[..., rows, :] for rows in blocks)
    bz, br, bc = (bv[..., rows] for rows in blocks)

    def gate(inputs, weight, bias):
        return inputs @ np.swapaxes(weight, -1, -2) + bias[..., None, :]

    xh = dc._concat([xv, hv], -1)
    z = dc._sigmoid_value(gate(xh, wz, bz))
    r = dc._sigmoid_value(gate(xh, wr, br))
    xrh = dc._concat([xv, r * hv], -1)
    c = np.tanh(gate(xrh, wc, bc))

    def backward(g):
        d_cand = g * z * (1.0 - c * c)
        d_xrh = d_cand @ wc
        d_rh = d_xrh[:, n_in:]
        d_update = g * (c - hv) * z * (1.0 - z)
        d_reset = d_rh * hv * r * (1.0 - r)
        d_xh = d_update @ wz + d_reset @ wr
        dc._accumulate(x, d_xh[:, :n_in] + d_xrh[:, :n_in])
        dc._accumulate(h, d_xh[:, n_in:] + d_rh * r + g * (1.0 - z))
        dc._accumulate(w, np.vstack([d_update.T @ xh, d_reset.T @ xh,
                                     d_cand.T @ xrh]))
        dc._accumulate(b, np.concatenate([d_update.sum(axis=0),
                                          d_reset.sum(axis=0),
                                          d_cand.sum(axis=0)]))

    return dc._emit((1.0 - z) * hv + z * c, backward, x, h, w, b)


def take(x, index):
    """x[index] for a basic numpy index; the adjoint lands in place."""
    xv = dc._value(x)

    def backward(g):
        full = np.zeros_like(xv)
        full[index] = g
        dc._accumulate(x, full)

    return dc._emit(xv[index].copy(), backward, x)


def stack_steps(ys):
    """Stack per-step [B x n] outputs into rows [B*steps x n], sample b's
    output at step t in row b*steps + t."""
    steps = len(ys)

    def backward(g):
        g = g.reshape(-1, steps, g.shape[-1])
        for t, y in enumerate(ys):
            dc._accumulate(y, g[:, t])

    rows = np.stack([dc._value(y) for y in ys], axis=1)
    return dc._emit(rows.reshape(-1, rows.shape[-1]), backward, *ys)


def gru_sequence_chain(xs, h0, w, b):
    """`gru_sequence` as a loop of `gru_step` over the rows of each step."""
    tau = dc._value(xs).shape[0] // dc._value(h0).shape[0]
    h = h0
    for t in range(tau):
        h = gru_step(take(xs, slice(t, None, tau)), h, w, b)
    return h


def gru_decoder_chain(h0, ego_x, state_w, state_b, w, b, steps):
    """`gru_decoder` as a loop of `gru_step` with its state embed applied
    step by step through `affine` and `relu`, averaged with the step's
    rows of ego_x when given; returns the state rows of every step."""
    h, hs = h0, []
    for t in range(steps):
        x = dc.relu(dc.affine(h, state_w, state_b))
        if ego_x is not None:
            x = dc.mul(dc.add(x, take(ego_x, slice(t, None, steps))), 0.5)
        h = gru_step(x, h, w, b)
        hs.append(h)
    return stack_steps(hs)


# --- the per-element gradient check -----------------------------------------


def unstaged_grad_check(f, params, step=1e-6):
    """Per-parameter worst relative error of the analytic gradients of
    ``f`` against central finite differences that rerun the whole loss
    ``f`` once for every perturbed element: the reference that
    ``diffcore.grad_check``, which perturbs many elements per rerun on a
    copy axis, must equal."""
    tape = next(iter(params.values())).tape
    tape.reset()
    tape.backward(f())
    analytic = {name: p.grad.copy() for name, p in params.items()}
    tape.reset()
    per_parameter = {}
    for name, p in params.items():
        flat = p.value.reshape(-1)
        grads = analytic[name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            with tape.no_grad():
                loss_plus = float(dc._value(f()))
            flat[i] = original - step
            with tape.no_grad():
                loss_minus = float(dc._value(f()))
            flat[i] = original
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            a = grads[i]
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if not math.isfinite(rel):
                rel = math.inf
            if rel > worst:
                worst = rel
        per_parameter[name] = worst
    return per_parameter


# --- the Adam update ---------------------------------------------------------


def adam_step(values, grads, m, v, step_count, lr, beta1=0.9, beta2=0.999,
              eps=1e-8):
    """One bias-corrected Adam update written as out-of-place
    expressions: the reference that ``nnkit.Adam.step``, which updates
    in place, must equal bit for bit.  Returns the new (values, m, v)
    and leaves its arguments as they are."""
    m = m * beta1
    m += (1.0 - beta1) * grads
    v = v * beta2
    v += (1.0 - beta2) * grads * grads
    m_hat = m / (1.0 - beta1 ** step_count)
    v_hat = v / (1.0 - beta2 ** step_count)
    return values - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


# --- per-sample baselines and metrics ------------------------------------------


def sample_fit_extrapolate(past, degree, delta):
    """One sample's polynomial fit, [tau x 4] -> [delta x 4]: the
    per-sample reference that the batched ``baselines.fit_extrapolate``
    must equal bit for bit."""
    matrix = np.asarray(past, dtype=np.float64)
    times = np.arange(matrix.shape[0], dtype=np.float64)
    coefficients = np.polynomial.polynomial.polyfit(times, matrix, degree)
    future = np.arange(matrix.shape[0], matrix.shape[0] + delta,
                       dtype=np.float64)
    return np.polynomial.polynomial.polyval(future, coefficients).T.copy()


def sample_displacement_errors(pred, truth):
    """(FDE, ADE) of one [delta x 4] forecast, as Python floats."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    errors = np.hypot(pred[:, 0] - truth[:, 0], pred[:, 1] - truth[:, 1])
    return float(errors[-1]), float(errors.mean())


def box_iou(pred, truth):
    """IoU of two [cx, cy, w, h] boxes in scalar Python arithmetic; a
    non-positive extent counts as zero area, an empty union gives 0."""

    def corners(box):
        cx, cy, w, h = (float(v) for v in box)
        w = max(w, 0.0)
        h = max(h, 0.0)
        return cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0

    ax0, ay0, ax1, ay1 = corners(pred)
    bx0, by0, bx1, by1 = corners(truth)
    inter_w = min(ax1, bx1) - max(ax0, bx0)
    inter_h = min(ay1, by1) - max(ay0, by0)
    intersection = max(inter_w, 0.0) * max(inter_h, 0.0)
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - intersection
    if union <= 0.0:
        return 0.0
    return intersection / union
