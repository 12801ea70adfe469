//! A tiny no-dependency HTTP/1.0 listener for `GET /metrics`.
//!
//! Just enough HTTP for a scraper: one thread accepts, reads the
//! request head, and answers `GET /metrics` with the rendered
//! exposition (anything else gets 404/405). Connections close after
//! one response (`Connection: close`), there is no keep-alive, no
//! chunking, no TLS — external tooling points at the port and polls.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dvm_telemetry::MetricsSource;

/// The listener handle: dropping it (or calling [`MetricsHttp::shutdown`])
/// stops the accept loop.
pub struct MetricsHttp {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsHttp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHttp")
            .field("addr", &self.addr)
            .finish()
    }
}

impl MetricsHttp {
    /// Binds `addr` (use port 0 for an ephemeral port) and serves
    /// `GET /metrics` from `source` until shutdown.
    pub fn bind(addr: &str, source: Arc<dyn MetricsSource>) -> std::io::Result<MetricsHttp> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let running = Arc::new(AtomicBool::new(true));
        let flag = running.clone();
        let handle = std::thread::Builder::new()
            .name("dvm-metrics-http".into())
            .spawn(move || accept_loop(listener, source, flag))
            .expect("spawn metrics http thread");
        Ok(MetricsHttp {
            addr,
            running,
            handle: Some(handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn shutdown(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            // The accept is blocking; a throwaway connection wakes it so
            // it can observe the flag and exit.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
    }
}

impl Drop for MetricsHttp {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, source: Arc<dyn MetricsSource>, running: Arc<AtomicBool>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // The shutdown wake-up connection lands here too; the
                // flag check drops it without serving.
                if !running.load(Ordering::SeqCst) {
                    break;
                }
                // Scrapes are cheap; serve inline on the accept thread.
                let _ = serve_one(stream, &*source);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Reads the request head (bounded) and writes one response.
fn serve_one(mut stream: TcpStream, source: &dyn MetricsSource) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    // Read until the blank line ending the head, bounding total size so
    // a hostile peer cannot balloon memory.
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if head.len() > 8192 {
            return respond(&mut stream, "400 Bad Request", "request head too large\n");
        }
    }
    let request_line = std::str::from_utf8(&head)
        .unwrap_or("")
        .lines()
        .next()
        .unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "only GET is supported\n",
        );
    }
    match path {
        "/metrics" => {
            let body = source.render_metrics();
            respond(&mut stream, "200 OK", &body)
        }
        _ => respond(&mut stream, "404 Not Found", "try /metrics\n"),
    }
}

fn respond(stream: &mut TcpStream, status: &str, body: &str) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A minimal scrape client for tests and the console: one blocking
/// `GET path`, returning the body on a 200.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: dvm\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header end"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(std::io::Error::other(format!("non-200 response: {status}")));
    }
    Ok(body.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(&'static str);

    impl MetricsSource for Fixed {
        fn render_metrics(&self) -> String {
            self.0.to_owned()
        }
    }

    #[test]
    fn get_metrics_serves_the_rendered_body() {
        let http = MetricsHttp::bind("127.0.0.1:0", Arc::new(Fixed("dvm_up 1\n"))).unwrap();
        let body = http_get(http.addr(), "/metrics").unwrap();
        assert_eq!(body, "dvm_up 1\n");
    }

    #[test]
    fn other_paths_and_methods_are_refused() {
        let http = MetricsHttp::bind("127.0.0.1:0", Arc::new(Fixed("x 1\n"))).unwrap();
        assert!(http_get(http.addr(), "/").is_err());
        // A POST gets a 405, read manually since http_get only does GET.
        let mut s = TcpStream::connect(http.addr()).unwrap();
        write!(s, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 405"));
    }
}
