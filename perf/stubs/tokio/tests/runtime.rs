//! The behaviours the repository's protocol code relies on.

use std::sync::{Arc, Mutex};
use std::time::Duration;
use tokio::runtime::Builder;
use tokio::sync::{mpsc, watch};
use tokio::time::{self, Instant, MissedTickBehavior};

fn paused() -> tokio::runtime::Runtime {
    Builder::new_current_thread().enable_time().start_paused(true).build().unwrap()
}

#[test]
fn frozen_clock_jumps_to_the_next_timer() {
    let wall = std::time::Instant::now();
    paused().block_on(async {
        let t0 = Instant::now();
        time::sleep(Duration::from_secs(3600)).await;
        assert_eq!(t0.elapsed(), Duration::from_secs(3600));
    });
    assert!(wall.elapsed() < Duration::from_secs(5), "virtual time burned wall time");
}

#[test]
fn timers_fire_in_deadline_then_registration_order() {
    let order = Arc::new(Mutex::new(Vec::new()));
    paused().block_on(async {
        let mut handles = Vec::new();
        for (tag, ms) in [("c", 30u64), ("a", 10), ("b", 10), ("d", 40)] {
            let order = order.clone();
            handles.push(tokio::spawn(async move {
                time::sleep(Duration::from_millis(ms)).await;
                order.lock().unwrap().push(tag);
            }));
        }
        for h in handles {
            h.await.unwrap();
        }
    });
    assert_eq!(*order.lock().unwrap(), ["a", "b", "c", "d"]);
}

#[test]
fn mpsc_delivers_in_order_and_closes() {
    paused().block_on(async {
        let (tx, mut rx) = mpsc::unbounded_channel();
        let tx2 = tx.clone();
        assert!(tx.same_channel(&tx2));
        tokio::spawn(async move {
            for i in 0..5 {
                tx.send(i).unwrap();
                tokio::task::yield_now().await;
            }
        });
        drop(tx2);
        let mut got = Vec::new();
        while let Some(v) = rx.recv().await {
            got.push(v);
        }
        assert_eq!(got, [0, 1, 2, 3, 4]);
    });
}

#[test]
fn sender_sees_a_dropped_receiver() {
    let (tx, rx) = mpsc::unbounded_channel::<u8>();
    assert!(!tx.is_closed());
    drop(rx);
    assert!(tx.is_closed());
    assert!(tx.send(1).is_err());
}

#[test]
fn select_takes_the_first_ready_branch_and_lets_handlers_break() {
    paused().block_on(async {
        let (tx, mut rx) = mpsc::unbounded_channel::<u32>();
        let (stop_tx, mut stop_rx) = watch::channel(false);
        tokio::spawn(async move {
            tx.send(1).unwrap();
            time::sleep(Duration::from_millis(5)).await;
            tx.send(2).unwrap();
            time::sleep(Duration::from_millis(5)).await;
            stop_tx.send(true).unwrap();
            // Keep `tx` alive so that only the watch can end the loop.
            time::sleep(Duration::from_secs(1)).await;
        });
        let mut seen = Vec::new();
        loop {
            let v = tokio::select! {
                _ = stop_rx.changed() => break,
                v = rx.recv() => match v {
                    Some(v) => v,
                    None => break,
                },
            };
            seen.push(v);
        }
        assert_eq!(seen, [1, 2]);
        assert!(*stop_rx.borrow());
    });
}

#[test]
fn select_with_block_handlers_and_a_timeout_branch() {
    paused().block_on(async {
        let (_tx, mut rx) = mpsc::unbounded_channel::<u32>();
        let t0 = Instant::now();
        let timed_out = tokio::select! {
            _ = rx.recv() => { panic!("nothing was sent") }
            _ = time::sleep(Duration::from_millis(250)) => { true }
        };
        assert!(timed_out);
        assert_eq!(t0.elapsed(), Duration::from_millis(250));
    });
}

#[test]
fn watch_reports_changes_once_and_the_senders_death() {
    paused().block_on(async {
        let (tx, mut rx) = watch::channel(0u32);
        let mut rx2 = rx.clone();
        tx.send(7).unwrap();
        rx.changed().await.unwrap();
        assert_eq!(*rx.borrow(), 7);
        rx2.changed().await.unwrap();
        drop(tx);
        assert!(rx.changed().await.is_err());
    });
}

#[test]
fn interval_ticks_immediately_then_every_period() {
    paused().block_on(async {
        let t0 = Instant::now();
        let mut ticker = time::interval(Duration::from_millis(200));
        ticker.set_missed_tick_behavior(MissedTickBehavior::Skip);
        let mut at = Vec::new();
        for _ in 0..4 {
            ticker.tick().await;
            at.push(t0.elapsed().as_millis());
        }
        assert_eq!(at, [0, 200, 400, 600]);
    });
}

#[test]
fn two_runs_of_one_scenario_schedule_identically() {
    fn run() -> Vec<(u128, usize)> {
        let log = Arc::new(Mutex::new(Vec::new()));
        paused().block_on(async {
            let t0 = Instant::now();
            let mut handles = Vec::new();
            for id in 0..8usize {
                let log = log.clone();
                handles.push(tokio::spawn(async move {
                    for round in 0..5u64 {
                        time::sleep(Duration::from_millis(3 * (id as u64 % 3) + round)).await;
                        log.lock().unwrap().push((t0.elapsed().as_micros(), id));
                    }
                }));
            }
            for h in handles {
                h.await.unwrap();
            }
        });
        Arc::try_unwrap(log).unwrap().into_inner().unwrap()
    }
    assert_eq!(run(), run());
}

#[test]
fn dropping_the_runtime_drops_pending_tasks() {
    struct Flag(Arc<Mutex<bool>>);
    impl Drop for Flag {
        fn drop(&mut self) {
            *self.0.lock().unwrap() = true;
        }
    }
    let dropped = Arc::new(Mutex::new(false));
    let rt = paused();
    let flag = Flag(dropped.clone());
    rt.block_on(async move {
        tokio::spawn(async move {
            let _flag = flag;
            time::sleep(Duration::from_secs(1_000_000)).await;
        });
        tokio::task::yield_now().await;
    });
    assert!(!*dropped.lock().unwrap());
    drop(rt);
    assert!(*dropped.lock().unwrap(), "the parked task's future must be dropped with the runtime");
}

#[test]
fn real_time_runtime_sleeps_on_the_wall_clock() {
    let rt = Builder::new_current_thread().enable_all().build().unwrap();
    let wall = std::time::Instant::now();
    rt.block_on(async { time::sleep(Duration::from_millis(30)).await });
    assert!(wall.elapsed() >= Duration::from_millis(30));
}
