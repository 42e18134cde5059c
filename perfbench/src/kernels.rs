//! Independent references for the programs the `evaluate` workload
//! runs: each suite program's kernel re-implemented in Rust with MiniC's
//! 32-bit wrapping arithmetic. The generated cold support layer is never
//! called by `main`, so the kernel alone decides the exit status and the
//! printed words. A compiler or emulator fault that hits baseline and
//! variants alike shows up here and nowhere else.

/// Exit status and printed words of `main(n)` for the programs
/// `evaluate` runs, or `None` for a program without a reference.
pub fn expected(name: &str, n: i32) -> Option<(i32, Vec<i32>)> {
    match name {
        "458.sjeng" => Some((sjeng(n), Vec::new())),
        "429.mcf" => Some((mcf(n), Vec::new())),
        "470.lbm" => Some(lbm(n)),
        _ => None,
    }
}

fn sjeng(n: i32) -> i32 {
    struct Game {
        board: [i32; 64],
        nodes: i32,
    }
    impl Game {
        fn eval(&mut self, depth: i32, alpha: i32, side: i32) -> i32 {
            self.nodes = self.nodes.wrapping_add(1);
            let mut s = 0i32;
            for i in 0..8 {
                let sign = 1 - 2 * (i & 1);
                s = s.wrapping_add(self.board[((i * 11 + depth) & 63) as usize].wrapping_mul(sign));
            }
            if side != 0 {
                s = s.wrapping_neg();
            }
            if s > alpha {
                s
            } else {
                alpha
            }
        }

        fn search(&mut self, depth: i32, alpha: i32, beta: i32, side: i32) -> i32 {
            if depth == 0 {
                return self.eval(depth, alpha, side);
            }
            let mut best = alpha;
            for mv in 0..3 {
                let from = ((depth * 13 + mv * 7) & 63) as usize;
                let save = self.board[from];
                self.board[from] = save.wrapping_add(mv - 1);
                let score = self
                    .search(
                        depth - 1,
                        beta.wrapping_neg(),
                        best.wrapping_neg(),
                        1 - side,
                    )
                    .wrapping_neg();
                self.board[from] = save;
                if score > best {
                    best = score;
                }
                if best >= beta {
                    return best;
                }
            }
            best
        }
    }

    let mut game = Game {
        board: [0; 64],
        nodes: 0,
    };
    for (i, cell) in (0i32..).zip(game.board.iter_mut()) {
        *cell = (i * 29) % 19 - 9;
    }
    let mut total = 0i32;
    for g in 0..n {
        total = total.wrapping_add(game.search(5, -30000, 30000, g & 1));
        let cell = &mut game.board[(g & 63) as usize];
        *cell = cell.wrapping_add(1);
    }
    total.wrapping_add(game.nodes) & 0xff_ffff
}

fn mcf(n: i32) -> i32 {
    let mut nxt = vec![0i32; 8192];
    let mut cost = vec![0i32; 8192];
    let mut s: i32 = 99;
    for i in 0..8192 {
        s = s.wrapping_mul(1_103_515_245).wrapping_add(12345);
        nxt[i] = (s >> 12) & 8191;
        cost[i] = (s >> 4) & 255;
    }
    let mut total = 0i32;
    let mut at = 0usize;
    for _ in 0..n {
        total = total.wrapping_add(cost[at]);
        at = nxt[at] as usize;
        if cost[at] > 200 {
            total = total.wrapping_sub(3);
        }
    }
    total & 0xff_ffff
}

fn lbm(n: i32) -> (i32, Vec<i32>) {
    const N: usize = 32768;
    let mut grid = vec![0i32; N];
    for (i, cell) in (0i32..).zip(grid.iter_mut()) {
        *cell = ((i + 7) * 31) & 255;
    }
    let mut check = 0i32;
    for t in 0..n {
        for i in 1..N - 1 {
            grid[i] = (grid[i - 1] + 2 * grid[i] + grid[i + 1]) >> 2;
        }
        grid[0] = (grid[1] + t) & 255;
        grid[N - 1] = (grid[N - 2] - t) & 255;
        if t & 7 == 0 {
            grid[(t.wrapping_mul(11) & 32767) as usize] = 128;
        }
        check = check.wrapping_add(grid[(t.wrapping_mul(97) & 32767) as usize]);
    }
    let mut c = 0i32;
    for i in (0..N).step_by(1024) {
        c ^= grid[(i + 3) & (N - 1)];
    }
    check ^= c;
    let output = if n < 0 { vec![check] } else { Vec::new() };
    (check & 0xff_ffff, output)
}

#[cfg(test)]
mod tests {
    use super::expected;
    use pgsd_core::driver::DEFAULT_GAS;
    use pgsd_core::Session;

    /// Each reference agrees with the compiled program on a few small
    /// inputs (small enough for a debug-build emulator).
    #[test]
    fn kernels_agree_with_the_compiled_programs() {
        for (name, inputs) in [
            ("458.sjeng", &[0, 1, 7, 18][..]),
            ("429.mcf", &[0, 5, 4000][..]),
            ("470.lbm", &[0, 1, 3, -1][..]),
        ] {
            let w = pgsd_workloads::by_name(name).expect("suite program");
            let session = Session::from_source(w.name, &w.source);
            let image = session.build().expect("baseline builds");
            for &n in inputs {
                let out = session.run(&image, &pgsd_core::Input::args(&[n]), DEFAULT_GAS, "t");
                let (status, output) = expected(name, n).expect("has a reference");
                assert_eq!(out.status(), Some(status), "{name}({n})");
                assert_eq!(out.stats.output, output, "{name}({n}) output");
            }
        }
    }
}
