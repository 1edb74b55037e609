//! L7/L8 seam fixture: one function per statement form the resolver and
//! the dataflow walker both parse (loop heads, guards, struct literals,
//! turbofish paths and methods, `let` patterns). The (code, line) set
//! the pass reports here is pinned in tests/fixtures.rs, including the
//! forms it misses: those are documented false negatives.

pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn u32(&mut self) -> Option<u32> {
        let raw = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]))
    }
}

const MAX_LEN: usize = 1 << 16;

pub struct Header {
    pub len: u32,
}

pub enum Frame {
    Execute(u32),
    Ping,
}

pub fn seam_while(c: &mut Cursor<'_>) -> Option<u32> {
    let n = c.u32()?;
    let mut i = 0;
    while i < n {
        i += 1;
    }
    Some(i)
}

pub fn seam_inverse_guard(c: &mut Cursor<'_>) -> Option<Vec<u8>> {
    let n = c.u32()? as usize;
    if MAX_LEN < n {
        return None;
    }
    Some(Vec::with_capacity(n))
}

pub fn seam_field(c: &mut Cursor<'_>) -> Option<Vec<u8>> {
    let h = Header { len: c.u32()? };
    Some(Vec::with_capacity(h.len as usize))
}

pub fn seam_turbofish_path(c: &mut Cursor<'_>) -> Option<Vec<u8>> {
    let n = c.u32()? as usize;
    Some(Vec::<u8>::with_capacity(n))
}

pub fn seam_parse_turbofish(text: &str) -> Result<u16, std::num::ParseIntError> {
    let v = text.parse::<u16>()?;
    Ok(v * 2)
}

pub fn seam_variant(c: &mut Cursor<'_>) -> Option<Vec<u8>> {
    let Some(x) = c.u32() else {
        return None;
    };
    Some(Vec::with_capacity(x as usize))
}

pub fn seam_variant_path(c: &mut Cursor<'_>) -> Option<Vec<u8>> {
    let Frame::Execute(x) = Frame::Execute(c.u32()?) else {
        return None;
    };
    Some(Vec::with_capacity(x as usize))
}

pub fn seam_tuple(c: &mut Cursor<'_>) -> Option<Vec<u8>> {
    let (a, b) = (c.u32()?, 4);
    Some(Vec::with_capacity(a as usize + b))
}

pub fn seam_slice_let(args: &[String]) -> Option<Vec<u8>> {
    let [count] = args else {
        return None;
    };
    let n: usize = count.parse().ok()?;
    Some(Vec::with_capacity(n))
}
