"""A DET005 site inside a nested hash context: one site, one finding."""

import hashlib


def outer(xs):
    def key_of():
        h = hashlib.sha256()
        for x in set(xs):  # DET005  # repro: noqa[DET005]
            h.update(str(x).encode())
        return h.hexdigest()

    return key_of()
