"""The union-find the tests take as an independent components oracle: the
vertex and edge class oracles and the cut complex test use it, and nothing
in ``coretorus`` does.  ``classes`` lists each class sorted, the classes in
order of least member.
"""


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def classes(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return [sorted(groups[r]) for r in sorted(groups)]
