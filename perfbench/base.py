"""What every workload provides to the measuring loop in run.py."""


class Workload:
    """A workload builds its shared inputs in ``setup_steps`` (each step is
    timed on its own and ``setup_s`` is their median), runs one round of
    ``operations`` per call, and checks the outputs of the last round in
    ``check``, which returns a list of failure messages."""

    traced = False  # set by run.py before the traced set-up and round
    peak_rss_of_children = False  # the work runs in child processes

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def setup_steps(self):
        raise NotImplementedError

    def operations(self):
        raise NotImplementedError

    def check(self):
        raise NotImplementedError

    def child_traces(self):
        """``(header, spans)`` of traced child processes."""
        return []

    def close(self):
        pass
