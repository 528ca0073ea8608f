"""Hand-built trees and the model's node table, both ways: `forest_of`
packs `Tree`s into a `Forest`, and `trees_of` cuts a `Forest` back into
`Tree`s, one per tree, for the scalar oracles that walk a tree at a time."""

from dataclasses import fields

import numpy as np

from rumourlens.classify import Forest, Tree

TREE_FIELDS = [f.name for f in fields(Tree)]


def forest_of(trees) -> Forest:
    sizes = [len(t.feature) for t in trees]
    columns = (np.concatenate([getattr(t, name) for t in trees]) for name in TREE_FIELDS)
    return Forest(np.cumsum(sizes) - sizes, *columns)


def trees_of(forest: Forest) -> list[Tree]:
    bounds = [*forest.start.tolist(), len(forest.feature)]
    return [Tree(*(getattr(forest, name)[a:b] for name in TREE_FIELDS)) for a, b in zip(bounds, bounds[1:])]
