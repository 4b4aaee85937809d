//! A minimal JSON object writer for the benchmark's one-line reports,
//! built on `mosaic_obs::json`'s string and number writers.

use mosaic_obs::json::{write_f64, write_str};
use std::fmt::Write;

/// An object under construction; fields keep insertion order.
#[derive(Debug, Default)]
pub struct Obj(String);

impl Obj {
    fn key(&mut self, k: &str) -> &mut String {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        write_str(&mut self.0, k);
        self.0.push(':');
        &mut self.0
    }

    /// A number; non-finite values become `null`.
    pub fn num(mut self, k: &str, v: f64) -> Self {
        write_f64(self.key(k), v);
        self
    }

    /// A whole number.
    pub fn int(mut self, k: &str, v: u64) -> Self {
        write!(self.key(k), "{v}").expect("writing to a String cannot fail");
        self
    }

    /// A string.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        write_str(self.key(k), v);
        self
    }

    /// An array of numbers; non-finite values become `null`.
    pub fn nums(mut self, k: &str, vs: &[f64]) -> Self {
        array(self.key(k), vs, |out, v| write_f64(out, *v));
        self
    }

    /// An array of strings.
    pub fn strs(mut self, k: &str, vs: &[String]) -> Self {
        array(self.key(k), vs, |out, v| write_str(out, v));
        self
    }

    /// A nested object.
    pub fn obj(self, k: &str, v: Obj) -> Self {
        self.raw(k, &v.finish())
    }

    /// Already-rendered JSON text.
    pub fn raw(mut self, k: &str, json: &str) -> Self {
        self.key(k).push_str(json);
        self
    }

    /// The finished object text.
    pub fn finish(self) -> String {
        if self.0.is_empty() {
            "{}".to_string()
        } else {
            self.0 + "}"
        }
    }
}

fn array<T>(out: &mut String, vs: &[T], mut item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, v);
    }
    out.push(']');
}
