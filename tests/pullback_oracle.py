"""Reference sheet matching for ``curves.double_cover_pullback``.

``double_cover_pullback`` here is the sign sweep that the package replaced
by counting: after the same spanning-forest gauge, it gives every free
shared point between two split curves its own sheet sign, assembles all
2^f sign vectors point by point, and keeps the first option of each
labelled intersection matrix.  It takes valid cover data only; the input
checks stay in the package.  The differential test compares the two
option by option, order included.
"""

import itertools

from evenlat.curves import CurveConfig, PullbackOption, PullbackResult
from evenlat.exactlinalg import IntMat


def double_cover_pullback(config: CurveConfig, step) -> PullbackResult:
    split = [lab for lab in config.labels if not step.branch_points.get(lab)]
    ram = [lab for lab in config.labels if step.branch_points.get(lab)]

    # sheet matching for split-split intersection points: fix a spanning
    # forest gauge, one free sign for every remaining point
    pair_points = []  # (label_a, label_b, point_id)
    for pair, ids in sorted(step.shared_points.items(), key=lambda kv: sorted(kv[0])):
        a, b = sorted(pair)
        if a in split and b in split:
            for pid in ids:
                pair_points.append((a, b, pid))
    fixed = {}
    comp = {lab: lab for lab in split}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    free_points = []
    for a, b, pid in pair_points:
        ra, rb = find(a), find(b)
        if ra != rb:
            comp[ra] = rb
            fixed[(a, b, pid)] = 0  # parallel: a-sheet meets b-sheet
        else:
            free_points.append((a, b, pid))

    options = []
    for signs in itertools.product((0, 1), repeat=len(free_points)):
        orient = dict(fixed)
        orient.update({pt: s for pt, s in zip(free_points, signs)})
        options.append(_assemble_pullback(config, step, split, ram, orient))
    # distinct labeled configurations only
    seen = {}
    for opt in options:
        key = (opt.config.labels, opt.config.gram.entries)
        if key not in seen:
            seen[key] = opt
    return PullbackResult(tuple(seen.values()))


def _assemble_pullback(config, step, split, ram, orient) -> PullbackOption:
    new_labels = []
    label_map = {}
    for lab in config.labels:
        if lab in ram:
            new_labels.append(lab)
            label_map[lab] = (lab,)
        else:
            la, lb = lab + "a", lab + "b"
            new_labels.extend([la, lb])
            label_map[lab] = (la, lb)
    idx = {lab: i for i, lab in enumerate(new_labels)}
    n = len(new_labels)
    gram = [[0] * n for _ in range(n)]
    for lab in config.labels:
        k = config.index(lab)
        s = config.gram.entries[k][k]
        if lab in ram:
            gram[idx[lab]][idx[lab]] = 2 * s
        else:
            for nl in label_map[lab]:
                gram[idx[nl]][idx[nl]] = s
    new_shared: dict[frozenset, list] = {}

    def bump(x, y, pid):
        gram[idx[x]][idx[y]] += 1
        gram[idx[y]][idx[x]] += 1
        new_shared.setdefault(frozenset((x, y)), []).append(pid)

    for pair, ids in step.shared_points.items():
        a, b = sorted(pair)
        for pid in ids:
            if a in ram and b in ram:
                bump(a, b, pid + ".0")
                bump(a, b, pid + ".1")
            elif a in ram:
                bump(a, b + "a", pid + ".0")
                bump(a, b + "b", pid + ".1")
            elif b in ram:
                bump(b, a + "a", pid + ".0")
                bump(b, a + "b", pid + ".1")
            else:
                if orient[(a, b, pid)] == 0:
                    bump(a + "a", b + "a", pid + ".0")
                    bump(a + "b", b + "b", pid + ".1")
                else:
                    bump(a + "a", b + "b", pid + ".0")
                    bump(a + "b", b + "a", pid + ".1")
    new_marked: dict[str, list] = {}
    for lab, pts in step.marked_points.items():
        if lab in ram:
            # both preimages of a marked point land on the single component
            new_marked.setdefault(lab, []).extend(p + s for p in pts for s in (".0", ".1"))
        else:
            for copy, suffix in zip(label_map[lab], (".a", ".b")):
                new_marked.setdefault(copy, []).extend(p + suffix for p in pts)
    cfg = CurveConfig(tuple(new_labels), IntMat.from_rows(gram))
    return PullbackOption(
        cfg,
        label_map,
        {k: tuple(v) for k, v in new_shared.items()},
        {k: tuple(v) for k, v in new_marked.items()},
    )
