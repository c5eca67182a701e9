//! The one hand-rolled HTTP/1.1 listener behind every endpoint the
//! workspace serves — the metrics exposition and the daemon's control
//! plane — plus the matching client, [`http_get`]. `GET` only, one
//! request per connection, routes supplied by the caller: deliberately
//! tiny, for scrapes and `curl`, not for load.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A route's answer: status line (`"200 OK"`), content type, body.
pub type Response = (String, &'static str, String);

/// An accept loop on a background thread, serving each `GET` request
/// target through a route handler. Joined on drop, so a restarted
/// process can rebind its port.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// answers every `GET` with `route(target)`, where `target` is the
    /// request's path and query.
    ///
    /// # Errors
    ///
    /// Returns the bind/listen error as a string.
    pub fn bind(
        addr: &str,
        route: impl Fn(&str) -> Response + Send + 'static,
    ) -> Result<Self, String> {
        let listener = TcpListener::bind(addr).map_err(|e| e.to_string())?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = stream.set_nonblocking(false);
                        serve_one(stream, &route);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(HttpServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_one(stream: TcpStream, route: &impl Fn(&str) -> Response) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers so well-behaved clients see a clean close.
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let (status, content_type, body) = if method == "GET" {
        route(target)
    } else {
        (
            "405 Method Not Allowed".into(),
            "text/plain",
            "GET only\n".into(),
        )
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut stream = reader.into_inner();
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
    // Half-close and wait (bounded by the read timeout) for the client's
    // EOF so the *client* closes first and TIME_WAIT lands on its side.
    // Otherwise a restart can hit EADDRINUSE: the kernel refuses to rebind
    // a listening port while a server-side TIME_WAIT socket from the
    // previous incarnation still holds it.
    let _ = stream.shutdown(Shutdown::Write);
    let mut sink = [0u8; 256];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// Fetches `path` from a running [`HttpServer`] over a plain TCP GET —
/// the client half of the endpoints, used by `pccheckctl top`/`job` in
/// remote mode and the smoke tests.
///
/// # Errors
///
/// Returns connect/read errors as strings; the response must be an HTTP
/// 200 or the status line is returned as the error.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, Duration::from_secs(2)).map_err(|e| e.to_string())?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: pccheck\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| e.to_string())?;
    // Read headers line-by-line, then exactly `Content-Length` body bytes,
    // and close promptly — the server half-closes after responding and
    // waits for our FIN, so the client must not linger until timeout.
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(|e| e.to_string())?;
        if n == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        head.push_str(&line);
    }
    let status = head.lines().next().unwrap_or("").to_string();
    if !status.contains("200") {
        return Err(format!("unexpected status: {status}"));
    }
    let content_length = head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("content-length")
            .then(|| v.trim().parse::<usize>().ok())?
    });
    let body = match content_length {
        Some(len) => {
            let mut buf = vec![0u8; len];
            reader.read_exact(&mut buf).map_err(|e| e.to_string())?;
            String::from_utf8(buf).map_err(|e| e.to_string())?
        }
        None => {
            let mut rest = String::new();
            reader
                .read_to_string(&mut rest)
                .map_err(|e| e.to_string())?;
            rest
        }
    };
    Ok(body)
}
