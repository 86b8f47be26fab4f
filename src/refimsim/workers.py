"""Worker processes forked from this one, which go on sharing its memory.

A worker starts as a copy of this process: it reads the arrays this process
held when it forked without copying them, `shared_array` buffers stay
shared both ways, and `release` lets either side drop the pages of a buffer
that it leaves to the other. Each worker answers the messages sent down its pipe, one
reply each, until the pipe closes, and then leaves with os._exit, so it
never runs this process's exit handlers or returns into its caller.
"""

import ctypes
import gc
import mmap
import os
import pickle
import warnings
import weakref

import numpy as np

_LIBC = None
if hasattr(os, "fork") and hasattr(mmap, "MADV_DONTNEED"):
    _LIBC = ctypes.CDLL(None)
    _LIBC.madvise.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    _LIBC.madvise.restype = ctypes.c_int


def shared_array(shape, dtype=np.float64):
    """Zeroed array in anonymous MAP_SHARED memory: this process and the
    workers it forks afterwards read and write the same pages."""
    size, dtype = int(np.prod(shape)), np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, max(size, 1) * dtype.itemsize), dtype=dtype,
                         count=size).reshape(shape)


def release(a):
    """Drop this process's whole pages of C-contiguous array a, where it can.
    A `shared_array` keeps its values, and the next access maps them back. In
    private memory they are lost: read them again only after overwriting
    them."""
    if _LIBC is None:
        return
    start, page = a.ctypes.data, mmap.PAGESIZE
    lo, hi = -(-start // page) * page, (start + a.nbytes) // page * page
    if hi > lo:
        _LIBC.madvise(lo, hi - lo, mmap.MADV_DONTNEED)


class Pipe:
    """One end of the pipe pair between this process and a worker: pickled
    messages each way, and EOFError once the other end is closed."""

    def __init__(self, read_fd, write_fd):
        self._in, self._out = os.fdopen(read_fd, "rb"), os.fdopen(write_fd, "wb")

    def send(self, message):
        data = pickle.dumps(message)  # a message that fails to pickle writes nothing
        self._out.write(data)
        self._out.flush()

    def recv(self):
        return pickle.load(self._in)

    def close(self):
        self._in.close()
        self._out.close()


# This process's ends of its workers' pipes. A new worker closes its copies
# of them all, so that every other worker still sees its own pipe close.
_OPEN_PIPES = weakref.WeakSet()


def fork(start, *args):
    """Fork a worker; return (pid, pipe), this process's end of its pipe.

    The worker calls start(*args), which returns a handler, then sends back
    handler(message), or the error it raised, for each message until the
    pipe closes.
    """
    down, up = os.pipe(), os.pipe()
    here, there = Pipe(up[0], down[1]), Pipe(down[0], up[1])
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with threads forks. A worker
            # runs numpy loops on its own data and takes no lock that a thread
            # here could hold, such as BLAS's.
            warnings.filterwarnings("ignore", "This process .*is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except BaseException:
        here.close()
        there.close()
        raise
    if pid == 0:
        try:
            here.close()
            for pipe in list(_OPEN_PIPES):
                pipe.close()
            gc.disable()  # a collection would touch, and so copy, the parent's pages
            _serve(there, start(*args))
        finally:
            os._exit(0)
    there.close()
    _OPEN_PIPES.add(here)
    return pid, here


def _serve(pipe, handle):
    while True:
        try:
            message = pipe.recv()
        except EOFError:
            return
        try:
            reply = handle(message)
        except BaseException as exc:  # raised in the forking process
            reply = exc
        try:
            pipe.send(reply)
        except (pickle.PicklingError, TypeError, AttributeError):
            pipe.send(RuntimeError(repr(reply)))  # an error that does not pickle


def stop(workers):
    """Close each (pid, pipe, ...) worker's pipe, which it leaves on, then
    reap it."""
    for _, pipe, *_ in workers:
        pipe.close()
    for pid, *_ in workers:
        os.waitpid(pid, 0)
